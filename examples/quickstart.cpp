/**
 * @file
 * Quickstart: build an interference model for one distributed
 * application and use it to answer the operator's question — "how
 * much slower will my job run next to that co-tenant?"
 *
 * Walks the full public API surface:
 *   1. pick applications from the catalog,
 *   2. let the registry profile them (propagation matrix, best
 *      heterogeneity policy, bubble score),
 *   3. predict a co-location, and
 *   4. check the prediction against the simulated cluster.
 */

#include <iostream>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "core/registry.hpp"
#include "workload/catalog.hpp"
#include "workload/runner.hpp"
#include "workload/run_service.hpp"

using namespace imc;

namespace {

int
run(const Cli& cli)
{
    // 1. The cluster profile and the applications involved.
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("seed", 7);
    cfg.reps = cli.get_int("reps", 3);
    const auto& app = workload::find_app(cli.get("app", "M.milc"));
    const auto& corunner =
        workload::find_app(cli.get("corunner", "C.mcf"));
    workload::RunService service(cli.get_int("threads", 0));

    std::cout << "Cluster: " << cfg.cluster.name << " ("
              << cfg.cluster.num_nodes << " nodes)\n"
              << "Application: " << app.name << " [" << app.abbrev
              << "]\nCo-runner:   " << corunner.name << " ["
              << corunner.abbrev << "]\n\n";

    // 2. Profile. The registry runs the binary-optimized profiling
    //    algorithm, selects the heterogeneity policy from random
    //    samples, and measures bubble scores — all through ordinary
    //    cluster runs, never by peeking inside the workloads.
    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 &service);
    const auto& model = registry.model(app).model;
    const auto& corunner_model = registry.model(corunner).model;

    std::cout << "Profiled model of " << app.abbrev << ":\n"
              << "  heterogeneity policy: "
              << core::to_string(model.policy()) << '\n'
              << "  bubble score (interference it generates): "
              << fmt_fixed(model.bubble_score(), 1) << '\n'
              << "  sensitivity at top pressure, all nodes: "
              << fmt_fixed(model.matrix().lookup(8.0, 8.0), 2)
              << "x\n\n";

    // 3. Predict: the co-runner occupies every node of the cluster,
    //    so the app sees the co-runner's bubble score on all of them.
    const double score = corunner_model.bubble_score();
    const std::vector<double> pressures(
        static_cast<std::size_t>(cfg.cluster.num_nodes), score);
    const double predicted = model.predict(pressures);
    std::cout << corunner.abbrev << " scores "
              << fmt_fixed(score, 1)
              << "; predicted normalized runtime of " << app.abbrev
              << " next to it: " << fmt_fixed(predicted, 3) << "x\n";

    // And what if only ONE node were shared? (The question the naive
    // proportional model gets wrong.)
    std::vector<double> one(
        static_cast<std::size_t>(cfg.cluster.num_nodes), 0.0);
    one[0] = score;
    std::cout << "...and with only one shared node: "
              << fmt_fixed(model.predict(one), 3)
              << "x (naive proportional would say "
              << fmt_fixed(core::predict_naive(model.matrix(), one), 3)
              << "x)\n\n";

    // 4. Verify against the cluster.
    const auto nodes = workload::all_nodes(cfg.cluster);
    workload::RunConfig verify_cfg = cfg;
    verify_cfg.salt = hash_string("quickstart-verify");
    const double solo =
        workload::run_solo_time(app, nodes, verify_cfg);
    const double actual =
        workload::run_corun_time(
            app, nodes, {workload::Deployment{corunner, nodes}},
            verify_cfg) /
        solo;
    std::cout << "Measured on the cluster: " << fmt_fixed(actual, 3)
              << "x  (prediction error "
              << fmt_fixed(abs_pct_error(predicted, actual), 1)
              << "%)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"app", "corunner", "seed", "reps", "threads"},
                     run);
}
