/**
 * @file
 * End-to-end integration tests: the full pipeline from profiling to
 * prediction to placement, exercised exactly the way the benchmark
 * harnesses use it (with reduced sizes for test speed).
 */

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "placement/mixes.hpp"
#include "workload/catalog.hpp"
#include "workload/runner.hpp"

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
    cfg.seed = 2024;
    return cfg;
}

ModelRegistry&
shared_registry()
{
    static RunService service(1);
    static ModelRegistry registry(fast_cfg(),
                                  [] {
                                      ModelBuildOptions opts;
                                      opts.policy_samples = 10;
                                      return opts;
                                  }(),
                                  &service);
    return registry;
}

} // namespace

TEST(Integration, PropagationClassesEmergeFromStructure)
{
    // The headline characterization (Fig. 2/3): with one interfered
    // node at top pressure, a barrier-coupled app loses most of its
    // full-interference slowdown, a task-pool app only a fraction,
    // and an insensitive app nothing.
    const auto cfg = fast_cfg();
    const auto nodes = all_nodes(cfg.cluster);
    auto frac_at_one_node = [&](const char* abbrev) {
        const auto& app = find_app(abbrev);
        std::vector<double> one(8, 0.0);
        one[0] = 8.0;
        const std::vector<double> all(8, 8.0);
        const double t1 = run_with_bubbles_norm(app, nodes, one, cfg);
        const double t8 = run_with_bubbles_norm(app, nodes, all, cfg);
        return (t1 - 1.0) / (t8 - 1.0);
    };
    const double milc = frac_at_one_node("M.milc");
    const double gems = frac_at_one_node("M.Gems");
    EXPECT_GT(milc, 0.35);        // high propagation: far above 1/8
    EXPECT_LT(gems, 0.30);        // proportional: near 1/8
    EXPECT_GT(milc, gems + 0.10); // and clearly separated
}

TEST(Integration, ModelPredictsCorunWithinTolerance)
{
    // Build a model from profiling runs only, then predict a co-run
    // it has never seen and compare against the simulator.
    auto& registry = shared_registry();
    const auto cfg = fast_cfg();
    const auto nodes = all_nodes(cfg.cluster);

    const auto& victim = find_app("M.milc");
    const auto& aggressor = find_app("C.sopl");
    const auto& victim_model = registry.model(victim, 8);
    const auto& aggressor_model = registry.model(aggressor, 8);

    const std::vector<double> pressures(
        8, aggressor_model.model.bubble_score());
    const double predicted = victim_model.model.predict(pressures);

    RunConfig corun_cfg = cfg;
    corun_cfg.salt = hash_string("integration-corun");
    const double solo = run_solo_time(victim, nodes, corun_cfg);
    const double actual =
        run_corun_time(victim, nodes,
                       {Deployment{aggressor, nodes}}, corun_cfg) /
        solo;
    EXPECT_GT(actual, 1.02); // the co-run genuinely interferes
    EXPECT_NEAR(predicted, actual, 0.18 * actual)
        << "predicted " << predicted << " vs actual " << actual;
}

TEST(Integration, ProfilingAlgorithmsAgreeOnRealApp)
{
    // Table 3's ordering on a real profiled application: exhaustive
    // is ground truth; binary-optimized must be cheaper than
    // binary-brute and both must beat random-30% in accuracy.
    const auto cfg = fast_cfg();
    const auto& app = find_app("M.lesl");
    const auto nodes = all_nodes(cfg.cluster);

    ProfileOptions opts;
    RunService service(1);
    CountingMeasure truth_m(
        make_cluster_measure(app, nodes, cfg, opts.grid, service));
    const auto truth = profile_exhaustive(truth_m, opts);

    CountingMeasure brute_m(
        make_cluster_measure(app, nodes, cfg, opts.grid, service));
    const auto brute = profile_binary_brute(brute_m, opts);
    CountingMeasure opt_m(
        make_cluster_measure(app, nodes, cfg, opts.grid, service));
    const auto optimized = profile_binary_optimized(opt_m, opts);
    CountingMeasure rnd_m(
        make_cluster_measure(app, nodes, cfg, opts.grid, service));
    const auto random30 =
        profile_random(rnd_m, opts, 0.3, Rng(5));

    EXPECT_LT(optimized.measured, brute.measured);
    const double err_brute =
        matrix_error_pct(brute.matrix, truth.matrix);
    const double err_opt =
        matrix_error_pct(optimized.matrix, truth.matrix);
    const double err_rnd =
        matrix_error_pct(random30.matrix, truth.matrix);
    EXPECT_LT(err_brute, 5.0);
    EXPECT_LT(err_opt, 10.0);
    EXPECT_LT(err_brute, err_rnd + 1e-9);
}

TEST(Integration, PlacementSearchBeatsWorstOnRealModels)
{
    auto& registry = shared_registry();
    const Mix mix{"test", {"N.mg", "C.libq", "H.KM", "M.Gems"}, -1};
    const auto instances =
        instantiate(mix, registry.config().cluster);
    ModelEvaluator eval(registry, instances);

    Rng rng(6);
    auto initial = Placement::random(
        instances, registry.config().cluster, rng);
    AnnealOptions opts;
    opts.iterations = 2500;
    opts.seed = 13;
    const auto best = anneal(initial, eval, Goal::MinimizeTotalTime,
                             std::nullopt, opts);
    const auto worst = anneal(initial, eval, Goal::MaximizeTotalTime,
                              std::nullopt, opts);
    ASSERT_LT(best.total_time, worst.total_time);

    // And the *measured* cluster agrees on the ordering.
    RunConfig cfg = registry.config();
    cfg.salt = hash_string("integration-placement");
    const auto best_actual = measure_actual(best.placement, cfg);
    const auto worst_actual = measure_actual(worst.placement, cfg);
    double best_total = 0.0;
    double worst_total = 0.0;
    for (std::size_t i = 0; i < best_actual.size(); ++i) {
        best_total += best_actual[i];
        worst_total += worst_actual[i];
    }
    EXPECT_LT(best_total, worst_total);
}

TEST(Integration, QosPlacementMeetsConstraintInSimulator)
{
    auto& registry = shared_registry();
    const Mix mix = qos_mixes().front();
    const auto instances =
        instantiate(mix, registry.config().cluster);
    ModelEvaluator eval(registry, instances);

    Rng rng(14);
    auto initial = Placement::random(
        instances, registry.config().cluster, rng);
    AnnealOptions opts;
    opts.iterations = 2500;
    opts.seed = 21;
    QosConstraint qos{mix.qos_index, 1.25};
    const auto result = anneal(initial, eval,
                               Goal::MinimizeTotalTime, qos, opts);
    ASSERT_TRUE(result.qos_met) << "model could not satisfy QoS";

    RunConfig cfg = registry.config();
    cfg.salt = hash_string("integration-qos");
    const auto actual = measure_actual(result.placement, cfg);
    // Allow the simulator a modest margin over the model's promise.
    EXPECT_LT(actual[static_cast<std::size_t>(mix.qos_index)], 1.40);
}
