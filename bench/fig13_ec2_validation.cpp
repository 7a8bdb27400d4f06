/**
 * @file
 * Reproduces Figure 13: pairwise model validation on the Amazon EC2
 * profile — each of the four Section 6 applications co-runs with all
 * the others, and the model's prediction error is reported. Paper
 * errors are 3-10%.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/chart.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

using namespace imc;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli, /*ec2=*/true);
    const auto service = benchutil::service_from_cli(cli);

    std::vector<std::string> abbrevs = cli.get_list("apps");
    if (abbrevs.empty())
        abbrevs = {"M.milc", "M.Gems", "M.zeus", "M.lu"};
    std::vector<workload::AppSpec> apps;
    for (const auto& abbrev : abbrevs)
        apps.push_back(workload::find_app(abbrev));

    std::cout << "Figure 13: validation errors for applications on "
                 "EC2\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());

    Table table({"app", "avg_err(%)", "min(%)", "max(%)"});
    BarChart chart("Average validation error on EC2", "%");
    for (const auto& target : apps) {
        const auto samples =
            benchutil::validate_pairwise(registry, target, apps);
        OnlineStats err;
        for (const auto& s : samples)
            err.add(s.error_pct);
        table.add_row({target.abbrev, fmt_fixed(err.mean(), 2),
                       fmt_fixed(err.min(), 2),
                       fmt_fixed(err.max(), 2)});
        chart.add(target.abbrev, err.mean());
    }
    chart.print(std::cout);
    std::cout << '\n';
    table.print(std::cout);
    std::cout << "\n(paper reports 3-10% average errors on EC2, "
                 "higher than the private cluster because of "
                 "unmeasured background interference)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv, {"apps", "seed", "reps", "threads"}, run);
}
