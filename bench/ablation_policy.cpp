/**
 * @file
 * Ablation: what does per-application policy *selection* buy over
 * forcing a single heterogeneity policy for every application (the
 * design choice behind Section 3.3)? For each distributed
 * application, heterogeneous validation error is reported under each
 * forced policy and under the selected best policy.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
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
    const int samples = cli.get_int("samples", 40);
    const auto apps = benchutil::apps_from_cli(cli);
    const auto nodes = workload::all_nodes(cfg.cluster);
    const auto service = benchutil::service_from_cli(cli);

    std::cout << "Ablation: forced single policy vs per-app selection\n"
              << "(cluster=" << cfg.cluster.name
              << ", samples=" << samples << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    Table table({"app", "N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE",
                 "selected", "selected err(%)"});
    std::vector<OnlineStats> forced(4);
    OnlineStats selected_stat;
    for (const auto& app : apps) {
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
                             hash_string("ablation:" + app.abbrev))));
        const auto best = best_policy(fits);
        std::vector<std::string> row{app.abbrev};
        for (std::size_t i = 0; i < fits.size(); ++i) {
            row.push_back(fmt_fixed(fits[i].avg_error_pct, 2));
            forced[i].add(fits[i].avg_error_pct);
        }
        row.push_back(to_string(best.policy));
        row.push_back(fmt_fixed(best.avg_error_pct, 2));
        selected_stat.add(best.avg_error_pct);
        table.add_row(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\nAverage error if one policy were forced on every "
                 "application:\n";
    for (std::size_t i = 0; i < all_policies().size(); ++i) {
        std::cout << "  " << pad_right(to_string(all_policies()[i]), 12)
                  << fmt_fixed(forced[i].mean(), 2) << "%\n";
    }
    std::cout << "  " << pad_right("selected", 12)
              << fmt_fixed(selected_stat.mean(), 2)
              << "%  <- per-app selection (the paper's design)\n";
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
