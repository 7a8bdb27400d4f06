/**
 * @file
 * Reproduces Figure 8: model validation by pairwise co-runs. Each
 * distributed application co-runs with every catalog application
 * (including itself); the model predicts the normalized execution
 * time from the co-runner's bubble score, and the figure reports the
 * per-application average error with 25-75% error bars.
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
    const auto cfg = benchutil::config_from_cli(cli);
    const auto service = benchutil::service_from_cli(cli);
    const auto targets = benchutil::apps_from_cli(cli);
    std::vector<workload::AppSpec> corunners;
    const auto corunner_names = cli.get_list("corunners");
    if (corunner_names.empty()) {
        corunners = workload::catalog(); // all 18, like the paper
    } else {
        for (const auto& name : corunner_names)
            corunners.push_back(workload::find_app(name));
    }

    std::cout << "Figure 8: average validation errors per application "
                 "(co-running with "
              << corunners.size() << " apps)\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());

    Table table({"app", "avg_err(%)", "p25(%)", "p75(%)", "max(%)"});
    BarChart chart("Average validation error", "%");
    for (const auto& target : targets) {
        const auto samples =
            benchutil::validate_pairwise(registry, target, corunners);
        std::vector<double> errors;
        for (const auto& s : samples)
            errors.push_back(s.error_pct);
        const double avg = mean(errors);
        table.add_row({target.abbrev, fmt_fixed(avg, 2),
                       fmt_fixed(percentile(errors, 25.0), 2),
                       fmt_fixed(percentile(errors, 75.0), 2),
                       fmt_fixed(percentile(errors, 100.0), 2)});
        chart.add(target.abbrev, avg);
    }
    chart.print(std::cout);
    std::cout << '\n';
    table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "corunners", "seed", "reps", "threads"},
                     run);
}
