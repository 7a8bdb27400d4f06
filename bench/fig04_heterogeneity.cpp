/**
 * @file
 * Reproduces Figure 4: average error when converting heterogeneous
 * interference to a homogeneous equivalent, for each of the four
 * mapping policies (N max, N+1 max, all max, interpolate) on each
 * distributed application, with min/max error bars — the paper's
 * 60-random-sample methodology on the 8-host cluster.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/measure.hpp"
#include "core/profilers.hpp"

using namespace imc;
using namespace imc::core;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const int samples = cli.get_int("samples", 60);
    const auto apps = benchutil::apps_from_cli(cli);
    const auto nodes = workload::all_nodes(cfg.cluster);
    const auto service = benchutil::service_from_cli(cli);

    std::cout << "Figure 4: heterogeneous-to-homogeneous conversion "
                 "error by policy\n(cluster="
              << cfg.cluster.name << ", samples=" << samples
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ")\n\n";

    Table table({"app", "policy", "avg_err(%)", "std(%)", "min(%)",
                 "max(%)"});
    for (const auto& app : apps) {
        // Homogeneous matrix measured exhaustively: the policies are
        // evaluated against the best possible propagation model so
        // the conversion error is isolated.
        ProfileOptions popts;
        popts.hosts = cfg.cluster.num_nodes;
        popts.row_tasks = service->threads();
        CountingMeasure measure(
            make_cluster_measure(app, nodes, cfg, popts.grid,
                                 *service),
            make_cluster_prefetch(app, nodes, cfg, popts.grid,
                                  *service));
        const auto profile = profile_exhaustive(measure, popts);

        const auto hetero =
            make_cluster_hetero_measure(app, nodes, cfg, *service);
        const auto fits = evaluate_policies(
            profile.matrix, hetero, cfg.cluster.num_nodes, samples,
            Rng(hash_combine(cfg.seed,
                             hash_string("fig04:" + app.abbrev))));
        for (const auto& fit : fits) {
            table.add_row({app.abbrev, to_string(fit.policy),
                           fmt_fixed(fit.avg_error_pct, 2),
                           fmt_fixed(fit.stddev_pct, 2),
                           fmt_fixed(fit.min_error_pct, 2),
                           fmt_fixed(fit.max_error_pct, 2)});
        }
        const auto best = best_policy(fits);
        std::cout << app.abbrev << ": best policy "
                  << to_string(best.policy) << " ("
                  << fmt_fixed(best.avg_error_pct, 2) << "% avg error)\n";
    }
    std::cout << '\n';
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "samples", "seed", "reps", "threads"},
                     run);
}
