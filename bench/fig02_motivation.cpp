/**
 * @file
 * Reproduces Figure 2: the motivating example. 126.lammps runs on all
 * 8 nodes while instances of 462.libquantum co-run on 0..8 of them;
 * the *naive* proportional model expects a linear increase in
 * execution time, but the real (simulated) runs jump as soon as a
 * single node is interfered — barrier coupling propagates local
 * interference to the whole application.
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
    const auto service = benchutil::service_from_cli(cli);
    const auto nodes = workload::all_nodes(cfg.cluster);
    const int m = cfg.cluster.num_nodes;

    const auto& lammps = workload::find_app("M.lmps");
    const auto& libq = workload::find_app("C.libq");

    std::cout << "Figure 2: execution time of " << lammps.name
              << " over various numbers of nodes executing "
              << libq.name << "\n(cluster=" << cfg.cluster.name
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ")\n\n";

    // One batch: the solo baseline plus every co-run point (libquantum
    // restarts on j nodes until lammps finishes).
    std::vector<workload::RunRequest> reqs;
    workload::RunConfig solo_cfg = cfg;
    solo_cfg.salt = hash_string("fig02-solo");
    reqs.push_back(
        workload::solo_time_request(lammps, nodes, solo_cfg));
    for (int j = 1; j <= m; ++j) {
        std::vector<sim::NodeId> libq_nodes;
        for (int n = 0; n < j; ++n)
            libq_nodes.push_back(n);
        workload::RunConfig corun_cfg = cfg;
        corun_cfg.salt = hash_combine(hash_string("fig02"),
                                      static_cast<std::uint64_t>(j));
        reqs.push_back(workload::corun_time_request(
            lammps, nodes, {workload::Deployment{libq, libq_nodes}},
            corun_cfg));
    }
    const auto times = service->run_all(reqs);
    const double solo = times[0];

    std::vector<double> real(static_cast<std::size_t>(m) + 1, 1.0);
    for (int j = 1; j <= m; ++j)
        real[static_cast<std::size_t>(j)] =
            times[static_cast<std::size_t>(j)] / solo;

    // Naive proportional expectation: interference on j of m nodes
    // contributes j/m of the all-node slowdown.
    const double full = real[static_cast<std::size_t>(m)];
    SeriesChart chart("Normalized execution time", "interfering nodes");
    const auto s_naive = chart.add_series("expected (naive)");
    const auto s_real = chart.add_series("real");
    Table table({"interfering_nodes", "expected_naive", "real"});
    for (int j = 0; j <= m; ++j) {
        const double naive =
            1.0 + (static_cast<double>(j) / m) * (full - 1.0);
        chart.add_point(s_naive, j, naive);
        chart.add_point(s_real, j, real[static_cast<std::size_t>(j)]);
        table.add_row({std::to_string(j), fmt_fixed(naive, 3),
                       fmt_fixed(real[static_cast<std::size_t>(j)], 3)});
    }
    chart.print(std::cout);

    // The headline claim: one interfering node already causes a large
    // fraction of the full degradation.
    const double one_node_fraction =
        (real[1] - 1.0) / (full - 1.0);
    std::cout << "\nFraction of the all-node degradation reached with "
                 "a single interfering node: "
              << fmt_pct(one_node_fraction)
              << " (naive model predicts " << fmt_pct(1.0 / m)
              << ")\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv, {"seed", "reps", "threads"}, run);
}
