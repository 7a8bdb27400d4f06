/**
 * @file
 * Reproduces Table 6: the best heterogeneity mapping policy on the
 * Amazon EC2 profile (100 random heterogeneous samples per
 * application, as in Section 6), next to the paper's values. Errors
 * are expected to be higher than on the private cluster because other
 * users' VMs inject unmeasured background interference.
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

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli, /*ec2=*/true);
    const int samples = cli.get_int("samples", 100);

    std::vector<std::string> abbrevs = cli.get_list("apps");
    if (abbrevs.empty())
        abbrevs = {"M.milc", "M.Gems", "M.zeus", "M.lu"};

    const std::map<std::string, std::pair<std::string, double>> paper{
        {"M.milc", {"N+1 MAX", 12.01}},
        {"M.Gems", {"N+1 MAX", 11.49}},
        {"M.zeus", {"ALL MAX", 6.40}},
        {"M.lu", {"N MAX", 5.28}},
    };

    const auto nodes = workload::all_nodes(cfg.cluster);
    const auto service = benchutil::service_from_cli(cli);
    std::cout << "Table 6: best heterogeneity mapping policy on EC2\n"
              << "(cluster=" << cfg.cluster.name
              << ", samples=" << samples << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    Table table({"Workload", "Best policy", "Avg. error(%)",
                 "Std. dev.", "Paper policy", "Paper err(%)"});
    for (const auto& abbrev : abbrevs) {
        const auto& app = workload::find_app(abbrev);
        ProfileOptions popts;
        popts.hosts = cfg.cluster.num_nodes;
        popts.row_tasks = service->threads();
        CountingMeasure measure(
            make_cluster_measure(app, nodes, cfg, popts.grid,
                                 *service),
            make_cluster_prefetch(app, nodes, cfg, popts.grid,
                                  *service));
        const auto profile = profile_binary_optimized(measure, popts);
        const auto hetero =
            make_cluster_hetero_measure(app, nodes, cfg, *service);
        const auto fits = evaluate_policies(
            profile.matrix, hetero, cfg.cluster.num_nodes, samples,
            Rng(hash_combine(cfg.seed,
                             hash_string("table6:" + abbrev))));
        const auto best = best_policy(fits);

        std::string paper_policy = "-";
        std::string paper_err = "-";
        const auto it = paper.find(abbrev);
        if (it != paper.end()) {
            paper_policy = it->second.first;
            paper_err = fmt_fixed(it->second.second, 2);
        }
        table.add_row({abbrev, to_string(best.policy),
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
