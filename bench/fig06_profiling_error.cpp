/**
 * @file
 * Reproduces Figure 6: per-application prediction error of the four
 * profiling techniques against the exhaustively measured sensitivity
 * matrix.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/chart.hpp"
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

    std::cout << "Figure 6: prediction errors with four profiling "
                 "techniques\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    Table table({"app", "binary-optimized", "binary-brute",
                 "random-50%", "random-30%"});
    for (const auto& app : apps) {
        const auto outcomes =
            benchutil::profiling_campaign(app, cfg, epsilon, *service);
        table.add_row({app.abbrev,
                       fmt_fixed(outcomes[0].error_pct, 2),
                       fmt_fixed(outcomes[1].error_pct, 2),
                       fmt_fixed(outcomes[2].error_pct, 2),
                       fmt_fixed(outcomes[3].error_pct, 2)});
    }
    table.print(std::cout);
    std::cout << "\n(values are mean absolute percentage error of the "
                 "reconstructed matrix, % )\n";
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
