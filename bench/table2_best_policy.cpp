/**
 * @file
 * Reproduces Table 2: the best heterogeneity mapping policy per
 * distributed application with its average error and standard
 * deviation, next to the paper's reported values.
 */

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/measure.hpp"
#include "core/profilers.hpp"

using namespace imc;
using namespace imc::core;

namespace {

/** The paper's Table 2 for comparison. */
const std::map<std::string, std::pair<std::string, double>>&
paper_table2()
{
    static const std::map<std::string, std::pair<std::string, double>>
        table{
            {"M.milc", {"N+1 MAX", 3.50}},
            {"M.lesl", {"N+1 MAX", 2.20}},
            {"M.Gems", {"INTERPOLATE", 7.34}},
            {"M.lmps", {"N+1 MAX", 1.91}},
            {"M.zeus", {"N+1 MAX", 1.11}},
            {"M.lu", {"N+1 MAX", 4.01}},
            {"N.cg", {"N+1 MAX", 3.37}},
            {"N.mg", {"N+1 MAX", 8.62}},
            {"H.KM", {"INTERPOLATE", 4.55}},
            {"S.WC", {"N MAX", 4.15}},
            {"S.CF", {"N MAX", 6.60}},
            {"S.PR", {"N+1 MAX", 3.69}},
        };
    return table;
}

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const int samples = cli.get_int("samples", 60);
    const auto apps = benchutil::apps_from_cli(cli);
    const auto nodes = workload::all_nodes(cfg.cluster);
    const auto service = benchutil::service_from_cli(cli);

    std::cout << "Table 2: best heterogeneity mapping policy per "
                 "application\n(cluster="
              << cfg.cluster.name << ", samples=" << samples
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ")\n\n";

    Table table({"Workload", "Best policy", "Avg. error(%)",
                 "Std. dev.", "Paper policy", "Paper err(%)"});
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
                             hash_string("table2:" + app.abbrev))));
        const auto best = best_policy(fits);

        std::string paper_policy = "-";
        std::string paper_err = "-";
        const auto it = paper_table2().find(app.abbrev);
        if (it != paper_table2().end()) {
            paper_policy = it->second.first;
            paper_err = fmt_fixed(it->second.second, 2);
        }
        table.add_row({app.abbrev, to_string(best.policy),
                       fmt_fixed(best.avg_error_pct, 2),
                       fmt_fixed(best.stddev_pct, 2), paper_policy,
                       paper_err});
    }
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
