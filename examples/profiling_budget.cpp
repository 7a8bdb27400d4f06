/**
 * @file
 * Profiling on a budget: how many cluster runs does a usable
 * interference model cost?
 *
 * For one application, builds the sensitivity matrix with every
 * profiling algorithm, prints the cost/accuracy frontier (the Table 3
 * trade-off), and then shows how the cheaper matrices change an
 * actual placement-relevant prediction — so an operator can decide
 * how much profiling their cluster time is worth.
 */

#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

using namespace imc;
using namespace imc::core;

namespace {

int
run(const Cli& cli)
{
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("seed", 3);
    cfg.reps = cli.get_int("reps", 2);
    const auto& app = workload::find_app(cli.get("app", "M.lesl"));

    ProfileOptions popts;
    popts.hosts = cfg.cluster.num_nodes;
    popts.epsilon = cli.get_double("epsilon", 0.05);
    const auto nodes = workload::all_nodes(cfg.cluster);
    workload::RunService service(cli.get_int("threads", 0));
    popts.row_tasks = service.threads();
    const auto fresh_measure = [&] {
        return CountingMeasure(
            make_cluster_measure(app, nodes, cfg, popts.grid,
                                 service),
            make_cluster_prefetch(app, nodes, cfg, popts.grid,
                                  service));
    };

    std::cout << "Profiling " << app.abbrev << " on "
              << cfg.cluster.name << " (" << popts.pressure_levels()
              << " pressure levels x " << popts.hosts
              << " node counts = "
              << popts.pressure_levels() * popts.hosts
              << " settings)\n\n";

    // Ground truth for accuracy accounting.
    CountingMeasure truth_measure = fresh_measure();
    const auto truth = profile_exhaustive(truth_measure, popts);

    Table table({"algorithm", "runs", "cost", "matrix error",
                 "predict T(p=6, j=2)"});
    for (const auto algorithm :
         {ProfileAlgorithm::Exhaustive, ProfileAlgorithm::BinaryBrute,
          ProfileAlgorithm::BinaryOptimized,
          ProfileAlgorithm::Random50, ProfileAlgorithm::Random30}) {
        CountingMeasure measure = fresh_measure();
        const auto result =
            run_profiler(algorithm, measure, popts,
                         hash_combine(cfg.seed, hash_string(
                                                    to_string(
                                                        algorithm))));
        table.add_row(
            {to_string(algorithm), std::to_string(result.measured),
             fmt_pct(result.cost(), 1),
             fmt_fixed(matrix_error_pct(result.matrix, truth.matrix),
                       2) +
                 "%",
             fmt_fixed(result.matrix.lookup(6.0, 2.0), 3)});
    }
    table.print(std::cout);
    std::cout << "\nEach 'run' is one profiled cluster setting (a "
                 "full application execution per repetition);\nthe "
                 "prediction column shows a placement-relevant lookup "
                 "so the accuracy loss is tangible.\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"app", "epsilon", "seed", "reps", "threads"},
                     run);
}
