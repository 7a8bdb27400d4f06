/**
 * @file
 * Micro benchmark of the placement-search hot path: proposed swaps
 * per second for (a) full re-prediction per proposal, (b) incremental
 * delta evaluation, and (c) delta evaluation with parallel chains —
 * the recorded artifact behind the DESIGN.md claim that delta
 * evaluation makes annealing cost per swap O(slots) predictions
 * instead of O(instances).
 *
 * The default scenario is production-shaped rather than paper-shaped:
 * 16 nodes (two slots each) fully packed with 8 four-unit
 * applications, scored by the full interference model. The bench also
 * cross-checks that full and delta runs return the identical
 * placement and objective, so the speedup is never bought with a
 * different answer.
 */

#include <chrono>
#include <iostream>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"

using namespace imc;
using namespace imc::placement;

namespace {

double
seconds_of(const std::chrono::steady_clock::time_point& t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

int
run(const Cli& cli)
{
    auto cfg = benchutil::config_from_cli(cli);
    cfg.cluster.num_nodes = cli.get_int("nodes", 16);
    cfg.cluster.name = "private" +
                       std::to_string(cfg.cluster.num_nodes);
    const int iters = cli.get_int("iters", 20000);
    const int runs = cli.get_int("runs", 3);
    const int chains_flag = cli.get_int("chains", 0);
    require(chains_flag >= 0, "--chains must be >= 0");
    const int chains = resolve_threads(chains_flag);
    const auto service = benchutil::service_from_cli(cli);

    // 8 four-unit applications: 32 units on 32 slots (full cluster),
    // mixing BSP, task-pool, and batch workloads.
    const std::vector<std::string> mix{"M.milc", "M.Gems", "H.KM",
                                       "C.libq", "N.mg",   "C.mcf",
                                       "S.PR",   "M.zeus"};
    std::vector<Instance> instances;
    for (const auto& abbrev : mix)
        instances.push_back(Instance{workload::find_app(abbrev), 4});

    std::cout << "Annealer micro bench: " << mix.size() << " apps x 4 "
              << "units on " << cfg.cluster.num_nodes << " nodes ("
              << iters << " proposals/run, best of " << runs
              << " runs, seed=" << cfg.seed << ")\n\nProfiling "
              << mix.size() << " models...\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());
    const ModelEvaluator evaluator(registry, instances);

    Rng rng(cfg.seed);
    const auto initial =
        Placement::random(instances, cfg.cluster, rng);

    struct Variant {
        std::string name;
        bool use_delta;
        int chains;
    };
    const std::vector<Variant> variants{
        {"full re-predict", false, 1},
        {"delta", true, 1},
        {"delta + " + std::to_string(chains) + " chains", true,
         chains},
    };

    Table table({"variant", "best time (s)", "proposals/sec",
                 "speedup", "objective"});
    double full_rate = 0.0;
    double delta_rate = 0.0;
    double full_total = 0.0;
    double delta_total = 0.0;
    std::string full_layout;
    std::string delta_layout;
    for (const auto& variant : variants) {
        AnnealOptions opts;
        opts.iterations = iters;
        opts.seed = cfg.seed + 1;
        opts.use_delta = variant.use_delta;
        opts.chains = variant.chains;

        double best_time = 0.0;
        AnnealResult result{initial, 0.0, true, 0};
        for (int run = 0; run < runs; ++run) {
            const auto t0 = std::chrono::steady_clock::now();
            result = anneal(initial, evaluator,
                            Goal::MinimizeTotalTime, std::nullopt,
                            opts);
            const double elapsed = seconds_of(t0);
            if (run == 0 || elapsed < best_time)
                best_time = elapsed;
        }
        const double proposals =
            static_cast<double>(iters) * variant.chains;
        const double rate = proposals / best_time;
        if (!variant.use_delta) {
            full_rate = rate;
            full_total = result.total_time;
            full_layout = result.placement.to_string();
        } else if (variant.chains == 1) {
            delta_rate = rate;
            delta_total = result.total_time;
            delta_layout = result.placement.to_string();
        }
        table.add_row({variant.name, fmt_fixed(best_time, 3),
                       fmt_fixed(rate, 0),
                       fmt_fixed(rate / (full_rate > 0.0 ? full_rate
                                                         : rate),
                                 2) +
                           "x",
                       fmt_fixed(result.total_time, 4)});
    }
    table.print(std::cout);

    const bool identical = full_total == delta_total &&
                           full_layout == delta_layout;
    std::cout << "\ndelta == full (placement and objective): "
              << (identical ? "yes" : "NO — BUG") << '\n'
              << "delta speedup over full re-predict: "
              << fmt_fixed(delta_rate / full_rate, 2) << "x\n";
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"nodes", "iters", "runs", "chains", "seed", "reps",
                      "threads"},
                     run);
}
