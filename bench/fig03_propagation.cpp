/**
 * @file
 * Reproduces Figure 3: normalized execution time of each distributed
 * application under homogeneous bubble interference, as the number of
 * interfering nodes grows from 0 to 8 and the bubble pressure from 1
 * to 8.
 *
 * The paper's observed propagation classes this bench should show:
 *  - high propagation (most MPI/NPB apps): a large jump at 1-2
 *    interfering nodes, then a slow further rise;
 *  - proportional propagation (M.Gems): a near-linear rise with the
 *    number of interfering nodes;
 *  - low propagation (H.KM, S.PR): close to 1.0 throughout.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/chart.hpp"
#include "common/cli.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

using namespace imc;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const auto apps = benchutil::apps_from_cli(cli);
    std::vector<int> pressures = cli.get_int_list("pressures");
    if (pressures.empty()) {
        for (int p = 1; p <= 8; ++p)
            pressures.push_back(p);
    }

    const auto nodes = workload::all_nodes(cfg.cluster);
    const int m = cfg.cluster.num_nodes;
    const auto service = benchutil::service_from_cli(cli);

    std::cout << "Figure 3: interference propagation "
              << "(cluster=" << cfg.cluster.name
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps << ")\n"
              << "Normalized execution time vs number of interfering "
                 "nodes, one series per bubble pressure.\n\n";

    for (const auto& app : apps) {
        SeriesChart chart(app.abbrev + " (" + app.name + ")", "nodes");
        std::vector<std::size_t> series;
        for (int p : pressures) {
            // Built via += rather than operator+ to dodge GCC 12's
            // -Wrestrict false positive (PR105329) at -O2.
            std::string label = "P";
            label += std::to_string(p);
            series.push_back(chart.add_series(label));
        }

        // The full sweep is one batch: the solo baseline plus one
        // loaded run per (pressure, interfering-node count) point.
        // The service deduplicates repeats (every j == 0 point is the
        // solo run) and, with --threads > 1, measures points
        // concurrently — the curves are bit-identical either way.
        std::vector<workload::RunRequest> reqs;
        reqs.push_back(workload::solo_time_request(app, nodes, cfg));
        for (int p : pressures) {
            for (int j = 0; j <= m; ++j) {
                std::vector<double> vec(static_cast<std::size_t>(m), 0.0);
                for (int n = 0; n < j; ++n)
                    vec[static_cast<std::size_t>(n)] = p;
                reqs.push_back(workload::app_time_request(
                    app, nodes, workload::bubble_tenants(vec), cfg));
            }
        }
        const auto times = service->run_all(reqs);
        const double solo = times[0];

        std::size_t k = 1;
        for (std::size_t pi = 0; pi < pressures.size(); ++pi) {
            for (int j = 0; j <= m; ++j)
                chart.add_point(series[pi], j, times[k++] / solo);
        }
        chart.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "pressures", "seed", "reps", "threads"},
                     run);
}
