/**
 * @file
 * Reproduces Figure 12: propagation curves on the Amazon EC2 profile
 * (32 VMs, c4.2xlarge analogue). The number of interfering VMs is
 * swept over {0,1,2,4,8,16,24,32} as in the paper, with unmeasured
 * background interference from other tenants' VMs present in every
 * run.
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
    const auto cfg = benchutil::config_from_cli(cli, /*ec2=*/true);

    std::vector<std::string> abbrevs = cli.get_list("apps");
    if (abbrevs.empty())
        abbrevs = {"M.milc", "M.Gems", "M.zeus", "M.lu"};
    std::vector<int> pressures = cli.get_int_list("pressures");
    if (pressures.empty())
        pressures = {1, 2, 4, 6, 8};
    const std::vector<int> vm_counts{0, 1, 2, 4, 8, 16, 24, 32};

    const auto nodes = workload::all_nodes(cfg.cluster);
    const auto service = benchutil::service_from_cli(cli);
    std::cout << "Figure 12: execution time with varying bubble "
                 "pressures, 0-32 interfering VMs on "
              << cfg.cluster.name << "\n(seed=" << cfg.seed
              << ", reps=" << cfg.reps
              << ", background sigma=" << cfg.cluster.background_sigma
              << ")\n\n";

    for (const auto& abbrev : abbrevs) {
        const auto& app = workload::find_app(abbrev);
        SeriesChart chart(abbrev + " (" + app.name + ")",
                          "interfering VMs");
        std::vector<std::size_t> series;
        for (int p : pressures) {
            // Built via += rather than operator+ to dodge GCC 12's
            // -Wrestrict false positive (PR105329) at -O2.
            std::string label = "P";
            label += std::to_string(p);
            series.push_back(chart.add_series(label));
        }
        // One batch per app: solo baseline + every swept point (the
        // service deduplicates the j == 0 repeats of the solo run).
        std::vector<workload::RunRequest> reqs;
        reqs.push_back(workload::solo_time_request(app, nodes, cfg));
        for (int p : pressures) {
            for (int j : vm_counts) {
                std::vector<double> vec(
                    static_cast<std::size_t>(cfg.cluster.num_nodes),
                    0.0);
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
            for (int j : vm_counts) {
                const double t = times[k++] / solo;
                chart.add_point(series[pi], j, t);
            }
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
