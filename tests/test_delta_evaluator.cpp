/**
 * @file
 * Equivalence property tests for the incremental delta-evaluation
 * path: over randomized placements and swap sequences, the cached
 * predictions maintained by DeltaScorer must match a fresh full
 * predict() to 1e-12 (they are in fact bit-identical), including the
 * undo/reject paths the annealer takes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "placement/delta_scorer.hpp"
#include "placement/evaluator.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::placement;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 91;
    return cfg;
}

ModelBuildOptions
fast_opts()
{
    ModelBuildOptions opts;
    opts.policy_samples = 6;
    return opts;
}

ModelRegistry&
shared_registry()
{
    static RunService service(1);
    static ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    return registry;
}

std::vector<Instance>
mix_instances()
{
    return {
        Instance{find_app("M.milc"), 4},
        Instance{find_app("M.Gems"), 4},
        Instance{find_app("H.KM"), 4},
        Instance{find_app("C.libq"), 4},
    };
}

/** Pick a uniformly random valid unit swap (asserts one exists). */
UnitSwap
random_valid_swap(const Placement& placement, Rng& rng)
{
    const int n = placement.num_instances();
    for (int attempt = 0; attempt < 1000; ++attempt) {
        const auto a = static_cast<int>(
            rng.uniform_index(static_cast<std::size_t>(n)));
        const auto b = static_cast<int>(
            rng.uniform_index(static_cast<std::size_t>(n)));
        const auto units_a = static_cast<std::size_t>(
            placement.instances()[static_cast<std::size_t>(a)].units);
        const auto units_b = static_cast<std::size_t>(
            placement.instances()[static_cast<std::size_t>(b)].units);
        const auto ua = static_cast<int>(rng.uniform_index(units_a));
        const auto ub = static_cast<int>(rng.uniform_index(units_b));
        if (placement.swap_is_valid(a, ua, b, ub))
            return UnitSwap{a, ua, b, ub};
    }
    throw LogicBug("random_valid_swap: no valid swap found");
}

void
expect_times_match(const std::vector<double>& incremental,
                   const std::vector<double>& full)
{
    ASSERT_EQ(incremental.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_NEAR(incremental[i], full[i], 1e-12) << "instance " << i;
}

/**
 * Drive a DeltaScorer through randomized apply/undo walks (the
 * annealer's accept/reject pattern), checking times() and total_time()
 * against the full path after every step.
 */
void
check_scorer_walk(const Evaluator& eval, int sequences, int steps,
                  std::uint64_t seed)
{
    Rng rng(seed);
    for (int s = 0; s < sequences; ++s) {
        auto initial = Placement::random(
            mix_instances(), sim::ClusterSpec::private8(), rng);
        DeltaScorer scorer(eval, initial);
        for (int k = 0; k < steps; ++k) {
            const auto swap =
                random_valid_swap(scorer.placement(), rng);
            scorer.apply(swap);
            if (rng.uniform() < 0.5)
                scorer.undo(); // the annealer's reject path
            const auto full = eval.predict(scorer.placement());
            expect_times_match(scorer.times(), full);
            EXPECT_NEAR(scorer.total_time(),
                        eval.total_time(scorer.placement()), 1e-12);
        }
    }
}

/** Minimal evaluator WITHOUT delta support (fallback-path coverage). */
class PlainEvaluator : public Evaluator {
  public:
    explicit PlainEvaluator(std::vector<double> scores)
        : scores_(std::move(scores))
    {
    }

    std::vector<double>
    predict(const Placement& placement) const override
    {
        const auto lists = placement.pressure_lists(scores_);
        std::vector<double> out;
        for (const auto& list : lists) {
            double sum = 0.0;
            for (double p : list)
                sum += p;
            out.push_back(1.0 + 0.05 * sum);
        }
        return out;
    }

  private:
    std::vector<double> scores_;
};

} // namespace

TEST(DeltaScorerWalk, ModelEvaluatorApplyUndoMatchesFullPredict)
{
    ModelEvaluator eval(shared_registry(), mix_instances());
    check_scorer_walk(eval, 40, 15, 3003);
}

TEST(DeltaScorerWalk, NaiveEvaluatorApplyUndoMatchesFullPredict)
{
    ModelEvaluator eval(shared_registry(), mix_instances(),
                        Predictor::kNaive);
    check_scorer_walk(eval, 40, 15, 4004);
}

TEST(DeltaScorerWalk, FallbackEvaluatorUsesFullPredictPath)
{
    // No delta support: DeltaScorer must transparently fall back to
    // full re-prediction with identical apply/undo semantics.
    const PlainEvaluator eval({2.0, 3.0, 1.0, 5.0});
    ASSERT_FALSE(eval.supports_delta());
    check_scorer_walk(eval, 10, 10, 5005);
}

TEST(DeltaScorerWalk, ForcedFullModeMatchesIncremental)
{
    // force_full runs the same walk through full re-prediction; both
    // scorers must agree bit-for-bit at every step.
    ModelEvaluator eval(shared_registry(), mix_instances());
    Rng rng(6006);
    for (int s = 0; s < 10; ++s) {
        auto initial = Placement::random(
            mix_instances(), sim::ClusterSpec::private8(), rng);
        DeltaScorer fast(eval, initial);
        DeltaScorer slow(eval, initial, /*force_full=*/true);
        ASSERT_TRUE(fast.incremental());
        ASSERT_FALSE(slow.incremental());
        for (int k = 0; k < 10; ++k) {
            const auto swap = random_valid_swap(fast.placement(), rng);
            fast.apply(swap);
            slow.apply(swap);
            if (rng.uniform() < 0.5) {
                fast.undo();
                slow.undo();
            }
            ASSERT_EQ(fast.placement().to_string(),
                      slow.placement().to_string());
            expect_times_match(fast.times(), slow.times());
        }
    }
}

TEST(DeltaScorerWalk, UndoWithoutApplyThrows)
{
    const PlainEvaluator eval({1.0, 1.0, 1.0, 1.0});
    Rng rng(7);
    auto initial = Placement::random(
        mix_instances(), sim::ClusterSpec::private8(), rng);
    DeltaScorer scorer(eval, initial);
    EXPECT_THROW(scorer.undo(), LogicBug);
}

TEST(DeltaEvaluator, BaseClassDeltaHooksRequireSupport)
{
    const PlainEvaluator eval({1.0, 1.0, 1.0, 1.0});
    EXPECT_THROW(eval.scores(), LogicBug);
    EXPECT_THROW(eval.predict_instance(0, {1.0}), LogicBug);
}
