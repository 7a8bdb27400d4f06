/**
 * @file
 * Reproduces Table 4: measured bubble scores of all 18 benchmark
 * applications, next to the paper's reported values.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/scorer.hpp"

using namespace imc;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const auto service = benchutil::service_from_cli(cli);
    const auto nodes = workload::all_nodes(cfg.cluster);

    std::cout << "Table 4: bubble scores for the benchmark "
                 "applications\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    const core::BubbleScorer scorer(cfg, *service);
    std::cout << "Reporter calibration (probe degradation at bubble "
                 "pressure 0..8):\n  ";
    for (double d : scorer.calibration())
        std::cout << fmt_fixed(d, 3) << ' ';
    std::cout << "\n\n";

    Table table({"Workload", "Bubble (measured)", "Bubble (paper)",
                 "abs diff"});
    OnlineStats diffs;
    for (const auto& app : workload::catalog()) {
        // Distributed apps span the cluster; batch apps likewise
        // deploy one unit per node for scoring.
        const double measured = scorer.score(app, nodes);
        const double paper =
            workload::paper_bubble_score(app.abbrev);
        diffs.add(std::abs(measured - paper));
        table.add_row({app.abbrev, fmt_fixed(measured, 1),
                       fmt_fixed(paper, 1),
                       fmt_fixed(std::abs(measured - paper), 2)});
    }
    table.print(std::cout);
    std::cout << "\nMean |measured - paper| = "
              << fmt_fixed(diffs.mean(), 2) << " pressure units\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv, {"seed", "reps", "threads"}, run);
}
