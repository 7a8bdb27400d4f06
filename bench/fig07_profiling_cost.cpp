/**
 * @file
 * Reproduces Figure 7: per-application profiling cost (fraction of
 * interference settings actually measured) of the four profiling
 * techniques.
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
    const double epsilon = cli.get_double("epsilon", 0.05);
    const auto apps = benchutil::apps_from_cli(cli);
    const auto service = benchutil::service_from_cli(cli);

    std::cout << "Figure 7: profiling cost with four profiling "
                 "techniques\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    Table table({"app", "binary-optimized", "binary-brute",
                 "random-50%", "random-30%"});
    for (const auto& app : apps) {
        const auto outcomes =
            benchutil::profiling_campaign(app, cfg, epsilon, *service);
        table.add_row({app.abbrev,
                       fmt_fixed(outcomes[0].cost_pct, 1),
                       fmt_fixed(outcomes[1].cost_pct, 1),
                       fmt_fixed(outcomes[2].cost_pct, 1),
                       fmt_fixed(outcomes[3].cost_pct, 1)});
    }
    table.print(std::cout);
    std::cout << "\n(values are % of the 8x8 interference settings "
                 "measured)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "epsilon", "seed", "reps", "threads"},
                     run);
}
