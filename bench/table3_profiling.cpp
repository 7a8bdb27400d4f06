/**
 * @file
 * Reproduces Table 3: average profiling cost and prediction accuracy
 * of the four matrix-construction algorithms (binary-optimized,
 * binary-brute, random-50%, random-30%) across the distributed
 * applications, next to the paper's reported averages.
 */

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/stats.hpp"
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

    std::cout << "Table 3: profiling cost and accuracy\n(cluster="
              << cfg.cluster.name << ", epsilon=" << epsilon
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ", apps=" << apps.size() << ")\n\n";

    const std::map<core::ProfileAlgorithm, std::pair<double, double>>
        paper{
            {core::ProfileAlgorithm::BinaryOptimized, {18.45, 3.16}},
            {core::ProfileAlgorithm::BinaryBrute, {59.44, 0.56}},
            {core::ProfileAlgorithm::Random50, {49.23, 5.31}},
            {core::ProfileAlgorithm::Random30, {29.23, 13.55}},
        };

    std::map<core::ProfileAlgorithm, OnlineStats> cost;
    std::map<core::ProfileAlgorithm, OnlineStats> error;
    for (const auto& app : apps) {
        const auto outcomes =
            benchutil::profiling_campaign(app, cfg, epsilon, *service);
        for (const auto& outcome : outcomes) {
            cost[outcome.algorithm].add(outcome.cost_pct);
            error[outcome.algorithm].add(outcome.error_pct);
        }
    }

    Table table({"Prediction Algorithm", "Average cost(%)",
                 "Average error(%)", "Paper cost(%)",
                 "Paper error(%)"});
    for (const auto algorithm :
         {core::ProfileAlgorithm::BinaryOptimized,
          core::ProfileAlgorithm::BinaryBrute,
          core::ProfileAlgorithm::Random50,
          core::ProfileAlgorithm::Random30}) {
        table.add_row({core::to_string(algorithm),
                       fmt_fixed(cost[algorithm].mean(), 2),
                       fmt_fixed(error[algorithm].mean(), 2),
                       fmt_fixed(paper.at(algorithm).first, 2),
                       fmt_fixed(paper.at(algorithm).second, 2)});
    }
    table.print(std::cout);
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
