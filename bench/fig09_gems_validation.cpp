/**
 * @file
 * Reproduces Figure 9: predicted vs actual normalized runtimes of
 * every distributed application when co-running with M.Gems — the
 * paper's least predictable co-runner, whose Xen Dom0 blocked-I/O
 * sensitivity makes its generated interference fluctuate when
 * co-located with the fluctuating-CPU Hadoop/Spark applications.
 */

#include <iostream>

#include "bench_util.hpp"
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
    const auto& gems = workload::find_app("M.Gems");

    std::cout << "Figure 9: validation errors with M.Gems as the "
                 "co-runner\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());

    Table table({"app", "predicted", "actual", "error(%)",
                 "fluctuating CPU?"});
    for (const auto& target : targets) {
        const auto samples =
            benchutil::validate_pairwise(registry, target, {gems});
        const auto& s = samples.front();
        table.add_row({target.abbrev, fmt_fixed(s.predicted, 3),
                       fmt_fixed(s.actual, 3),
                       fmt_fixed(s.error_pct, 2),
                       target.fluctuating_cpu ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\n(the Dom0 effect makes errors largest for the "
                 "fluctuating-CPU Hadoop/Spark targets, Section 4.3)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv, {"apps", "seed", "reps", "threads"}, run);
}
