/**
 * @file
 * Equivalence property tests for the incremental delta-evaluation
 * path: over randomized placements and swap/move sequences, the cached
 * predictions maintained by DeltaScorer must match a fresh full
 * predict() to 1e-12 (they are in fact bit-identical), including the
 * undo/reject paths the annealer takes. The polish filter
 * (placement::filter_change) must likewise agree with the full
 * objective comparison whenever it decides alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "placement/delta_scorer.hpp"
#include "placement/evaluator.hpp"
#include "placement/slo.hpp"
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

/** One unit and the node it moves to. */
struct UnitMove {
    int instance = 0;
    int unit = 0;
    sim::NodeId to = 0;
};

/**
 * Pick a random unit move by the polish's rule: a random unit goes to
 * a random node that has a free slot and that its instance does not
 * occupy (asserts one exists).
 */
UnitMove
random_valid_move(const Placement& placement, Rng& rng)
{
    std::vector<int> load(static_cast<std::size_t>(placement.num_nodes()));
    for (int i = 0; i < placement.num_instances(); ++i) {
        for (int u = 0;
             u < placement.instances()[static_cast<std::size_t>(i)].units;
             ++u)
            ++load[static_cast<std::size_t>(placement.node_of(i, u))];
    }
    for (int attempt = 0; attempt < 1000; ++attempt) {
        const auto a = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(placement.num_instances())));
        const auto ua = static_cast<int>(rng.uniform_index(
            static_cast<std::size_t>(
                placement.instances()[static_cast<std::size_t>(a)]
                    .units)));
        const auto to = static_cast<sim::NodeId>(rng.uniform_index(
            static_cast<std::size_t>(placement.num_nodes())));
        if (load[static_cast<std::size_t>(to)] <
                placement.slots_per_node() &&
            !placement.occupies(a, to))
            return UnitMove{a, ua, to};
    }
    throw LogicBug("random_valid_move: no valid move found");
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
 * Drive a DeltaScorer through randomized change/undo walks (the
 * search loops' accept/reject pattern), checking times() and
 * total_time() against the full path after every step. Each step
 * applies a random valid swap or, with @p moves, half the time a
 * random valid move_unit(); moves need free slots, so those walks
 * run 16 units on ten two-slot nodes instead of eight.
 */
void
check_scorer_walk(const Evaluator& eval, int sequences, int steps,
                  std::uint64_t seed, bool moves = false,
                  bool force_full = false)
{
    Rng rng(seed);
    const auto cluster = moves ? sim::ClusterSpec::scaled(10)
                               : sim::ClusterSpec::private8();
    for (int s = 0; s < sequences; ++s) {
        auto initial = Placement::random(mix_instances(), cluster, rng);
        DeltaScorer scorer(eval, initial, force_full);
        for (int k = 0; k < steps; ++k) {
            const std::string before = scorer.placement().to_string();
            if (moves && rng.bernoulli(0.5)) {
                const auto move =
                    random_valid_move(scorer.placement(), rng);
                scorer.move_unit(move.instance, move.unit, move.to);
            } else {
                scorer.apply(random_valid_swap(scorer.placement(), rng));
            }
            if (rng.uniform() < 0.5) {
                scorer.undo(); // the search loops' reject path
                EXPECT_EQ(scorer.placement().to_string(), before);
            }
            const auto full = eval.predict(scorer.placement());
            expect_times_match(scorer.times(), full);
            EXPECT_NEAR(scorer.total_time(),
                        eval.total_time(scorer.placement()), 1e-12);
        }
    }
}

/**
 * tail_objective() written out inline: the left-to-right total-time
 * and debt sums the polish filter must agree with.
 */
double
reference_objective(const std::vector<double>& times,
                    const std::vector<int>& units,
                    const std::vector<double>& slo, double penalty)
{
    double total = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i)
        total += times[i] * units[i];
    double debt = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (slo[i] > 0.0 && times[i] > slo[i])
            debt += units[i] * (times[i] - slo[i]);
    }
    return total + penalty * debt;
}

/** One M.milc instance per entry of @p units, for tail_objective(). */
std::vector<Instance>
instances_of(const std::vector<int>& units)
{
    std::vector<Instance> out;
    for (int u : units)
        out.push_back(Instance{find_app("M.milc"), u});
    return out;
}

/**
 * A random polish state of @p n instances: 1-4 units each, times in
 * [0.5, 4], and SLO targets near the times, so changes switch debt
 * terms on and off; 30% of instances are best-effort.
 */
void
random_state(std::size_t n, Rng& rng, std::vector<int>& units,
             std::vector<double>& times, std::vector<double>& slo)
{
    units.clear();
    times.clear();
    slo.clear();
    for (std::size_t i = 0; i < n; ++i) {
        units.push_back(1 + static_cast<int>(rng.uniform_index(4)));
        times.push_back(rng.uniform(0.5, 4.0));
        slo.push_back(rng.bernoulli(0.3)
                          ? 0.0
                          : times.back() * rng.uniform(0.9, 1.1));
    }
}

/** @p t moved @p steps ulps (negative: down). */
double
nudge_ulps(double t, int steps)
{
    const double toward = steps < 0 ? 0.0 : 8.0;
    for (int s = 0; s < std::abs(steps); ++s)
        t = std::nextafter(t, toward);
    return t;
}

/** @p want distinct random positions out of @p n (at most n). */
std::vector<int>
pick_distinct(std::size_t n, int want, Rng& rng)
{
    std::vector<int> picked;
    while (picked.size() < std::min(n, static_cast<std::size_t>(want))) {
        const auto i = static_cast<int>(rng.uniform_index(n));
        if (std::find(picked.begin(), picked.end(), i) == picked.end())
            picked.push_back(i);
    }
    return picked;
}

/**
 * Up to @p want distinct positions holding the same unit count as a
 * random first one and, when @p best_effort, no SLO: the instances
 * whose times can trade places without moving either exact sum.
 */
std::vector<int>
pick_twins(const std::vector<int>& units, const std::vector<double>& slo,
           int want, bool best_effort, Rng& rng)
{
    std::vector<int> picked;
    for (int probe = 0; probe < 400 && static_cast<int>(picked.size()) < want;
         ++probe) {
        const auto i = static_cast<int>(rng.uniform_index(units.size()));
        const auto ii = static_cast<std::size_t>(i);
        if (std::find(picked.begin(), picked.end(), i) != picked.end())
            continue;
        if (best_effort && slo[ii] > 0.0)
            continue;
        if (!picked.empty() &&
            units[ii] != units[static_cast<std::size_t>(picked[0])])
            continue;
        picked.push_back(i);
    }
    return picked;
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

TEST(DeltaScorerWalk, MovesAndSwapsMatchFullPredict)
{
    // The polish's moves go through the same relocation as swaps;
    // walk both, incrementally and with full re-prediction forced.
    ModelEvaluator eval(shared_registry(), mix_instances());
    check_scorer_walk(eval, 40, 15, 8008, /*moves=*/true);
    check_scorer_walk(eval, 10, 15, 9009, /*moves=*/true,
                      /*force_full=*/true);
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

// The polish filter's verdict must equal the full comparison whenever
// it is certain. Random states of up to 5,000 instances walk through
// changes of 1-6 instances: fresh times, permutations that leave the
// exact sums equal, few-ulp nudges, and paired changes that cancel to
// within a few ulps. A walk keeps the changes that lower the
// objective and widens its magnitude bound the way the scheduler's
// polish does.
TEST(PolishFilter, CertainVerdictsMatchTheFullComparison)
{
    Rng rng(20261017);
    const double penalty = 100.0;
    int lower = 0;
    int not_lower = 0;
    int unsure = 0;
    std::vector<int> units;
    std::vector<double> times;
    std::vector<double> slo;
    for (int trial = 0; trial < 40; ++trial) {
        const auto n = static_cast<std::size_t>(
            1 + rng.uniform_index(trial % 4 == 0 ? 5000 : 300));
        random_state(n, rng, units, times, slo);
        double magnitude = objective_magnitude(times, units, slo, penalty);
        double current = reference_objective(times, units, slo, penalty);
        ASSERT_EQ(tail_objective(times, instances_of(units), slo, penalty),
                  current);

        for (int step = 0; step < 60; ++step) {
            std::vector<int> changed;
            std::vector<double> fresh;
            const auto mode = rng.uniform_index(4);
            const int count = 1 + static_cast<int>(rng.uniform_index(6));
            if (mode == 1 || mode == 3) {
                changed = pick_twins(units, slo, std::max(count, 2),
                                     mode == 1, rng);
                if (changed.size() < 2)
                    continue;
            } else {
                changed = pick_distinct(n, count, rng);
            }
            for (int i : changed)
                fresh.push_back(times[static_cast<std::size_t>(i)]);
            if (mode == 0) {
                for (double& t : fresh)
                    t = rng.bernoulli(0.5)
                            ? rng.uniform(0.5, 4.0)
                            : std::clamp(t * rng.uniform(0.95, 1.05),
                                         0.5, 4.0);
            } else if (mode == 1) {
                // Rotate: equal units and no SLO, so the exact
                // objective is unchanged and only rounding differs.
                std::rotate(fresh.begin(), fresh.begin() + 1,
                            fresh.end());
            } else if (mode == 2) {
                for (double& t : fresh)
                    t = nudge_ulps(
                        t, (rng.bernoulli(0.5) ? 1 : -1) *
                               (1 + static_cast<int>(
                                        rng.uniform_index(4))));
            } else {
                // Equal units: +d on one and -d on another cancel,
                // up to a few ulps of nudge; both stay in [0.5, 4].
                const double d = rng.uniform(
                    std::max(0.5 - fresh[0], fresh[1] - 4.0),
                    std::min(4.0 - fresh[0], fresh[1] - 0.5));
                fresh[0] = nudge_ulps(
                    fresh[0] + d,
                    static_cast<int>(rng.uniform_index(5)) - 2);
                fresh[1] -= d;
            }

            // The filter sees the changed positions ascending.
            std::vector<std::size_t> order(changed.size());
            for (std::size_t k = 0; k < order.size(); ++k)
                order[k] = k;
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return changed[a] < changed[b];
                      });
            std::vector<int> sorted_changed;
            std::vector<double> old_times;
            std::vector<double> after = times;
            for (std::size_t k : order) {
                const auto i = static_cast<std::size_t>(changed[k]);
                sorted_changed.push_back(changed[k]);
                old_times.push_back(times[i]);
                after[i] = fresh[k];
            }

            const ChangeVerdict v =
                filter_change(sorted_changed, old_times, after, units,
                              slo, penalty, magnitude);
            const double next =
                reference_objective(after, units, slo, penalty);
            const bool truth = next < current;
            if (v.change == Change::kLower) {
                ++lower;
                EXPECT_TRUE(truth) << "trial " << trial << " step " << step;
            } else if (v.change == Change::kNotLower) {
                ++not_lower;
                EXPECT_FALSE(truth)
                    << "trial " << trial << " step " << step;
            } else {
                ++unsure;
            }
            EXPECT_EQ(full_change_lower(sorted_changed, old_times, after,
                                        units, slo, penalty),
                      truth);

            // Rewriting the same times is never lower.
            const ChangeVerdict same =
                filter_change(sorted_changed, old_times, times, units,
                              slo, penalty, magnitude);
            EXPECT_EQ(same.change, Change::kNotLower);

            if (truth) {
                times = after;
                current = next;
                magnitude = v.magnitude_after;
            }
        }
    }
    EXPECT_GT(lower, 0);
    EXPECT_GT(not_lower, 0);
    EXPECT_GT(unsure, 0);
}

// full_change_lower() sums the prefix before the first changed
// instance once and then runs both states' sums side by side. Its
// edges: the first changed instance is index 0 (no shared prefix),
// and the only changed instance is the last (no suffix after it).
// Each must equal what tail_objective() says of the two states.
TEST(PolishFilter, FullComparisonEdgesMatchTailObjective)
{
    Rng rng(20261019);
    const double penalty = 100.0;
    std::vector<int> units;
    std::vector<double> times;
    std::vector<double> slo;
    int lower = 0;
    int not_lower = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const auto n =
            static_cast<std::size_t>(1 + rng.uniform_index(300));
        random_state(n, rng, units, times, slo);
        const std::vector<Instance> instances = instances_of(units);

        std::vector<int> changed;
        if (trial % 2 == 0) {
            changed.push_back(0);
            for (std::size_t i = 1; i < n; ++i)
                if (rng.bernoulli(0.02))
                    changed.push_back(static_cast<int>(i));
        } else {
            changed.push_back(static_cast<int>(n - 1));
        }
        // Half the changes are a few-ulp nudge, so the two objectives
        // differ only in their last bits.
        std::vector<double> old_times;
        std::vector<double> after = times;
        for (int i : changed) {
            const auto ii = static_cast<std::size_t>(i);
            old_times.push_back(times[ii]);
            after[ii] =
                rng.bernoulli(0.5)
                    ? rng.uniform(0.5, 4.0)
                    : nudge_ulps(times[ii],
                                 rng.bernoulli(0.5) ? 2 : -2);
        }
        std::vector<double> before = after;
        for (std::size_t k = 0; k < changed.size(); ++k)
            before[static_cast<std::size_t>(changed[k])] = old_times[k];
        const bool truth =
            tail_objective(after, instances, slo, penalty) <
            tail_objective(before, instances, slo, penalty);
        (truth ? lower : not_lower) += 1;
        EXPECT_EQ(full_change_lower(changed, old_times, after, units, slo,
                                    penalty),
                  truth)
            << "trial " << trial << ", " << n << " instances";
    }
    EXPECT_GT(lower, 0);
    EXPECT_GT(not_lower, 0);

    // The changed list must be ascending and in range.
    random_state(4, rng, units, times, slo);
    EXPECT_THROW(full_change_lower({2, 1}, {1.0, 1.0}, times, units, slo,
                                   penalty),
                 ConfigError);
    EXPECT_THROW(
        full_change_lower({4}, {1.0}, times, units, slo, penalty),
        ConfigError);
}
