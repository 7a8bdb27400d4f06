/**
 * @file
 * Reproduces Figure 10: QoS-aware placement. For each mix, the
 * annealing search places the four workloads so that the
 * mission-critical application keeps at least 80% of its solo
 * performance (normalized time <= 1.25) while minimizing the total
 * normalized runtime. The search is run once with the full
 * interference model and once with the naive proportional model; the
 * chosen placements are then executed on the simulated cluster, which
 * reports whether the QoS actually held and the VM-weighted sum of
 * normalized runtimes — the paper's two panels.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "placement/mixes.hpp"

using namespace imc;
using namespace imc::placement;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const auto service = benchutil::service_from_cli(cli);
    const int iters = cli.get_int("iters", 4000);
    const double qos_perf = cli.get_double("qos", 0.8);
    // Default 1 keeps the recorded results reproducible.
    const int chains = cli.get_int("chains", 1);
    const double limit = 1.0 / qos_perf;

    std::cout << "Figure 10: QoS guarantee and runtimes normalized to "
                 "solo runs\n(cluster="
              << cfg.cluster.name << ", QoS target = " << fmt_pct(
                     qos_perf, 0)
              << " of solo => normalized time <= " << fmt_fixed(limit, 3)
              << ", seed=" << cfg.seed << ", reps=" << cfg.reps
              << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());

    Table table({"mix", "QoS app", "model", "QoS norm.time",
                 "QoS met?", "total norm.time (weighted)"});
    for (const auto& mix : qos_mixes()) {
        const auto instances = instantiate(mix, cfg.cluster);
        const ModelEvaluator model_eval(registry, instances);
        const ModelEvaluator naive_eval(registry, instances,
                                        Predictor::kNaive);

        struct Variant {
            const char* name;
            const Evaluator* evaluator;
        };
        const Variant variants[]{{"proposed", &model_eval},
                                 {"naive", &naive_eval}};
        for (const auto& variant : variants) {
            Rng rng(hash_combine(cfg.seed,
                                 hash_string("fig10:" + mix.name +
                                             variant.name)));
            auto initial =
                Placement::random(instances, cfg.cluster, rng);
            AnnealOptions opts;
            opts.iterations = iters;
            opts.seed = hash_combine(cfg.seed,
                                     hash_string(mix.name) + 1);
            opts.chains = chains;
            QosConstraint qos{mix.qos_index, limit};
            const auto found =
                anneal(initial, *variant.evaluator,
                       Goal::MinimizeTotalTime, qos, opts);

            // Ground truth: run the chosen placement.
            workload::RunConfig measure_cfg = cfg;
            measure_cfg.salt = hash_string("fig10-measure:" +
                                           mix.name + variant.name);
            const auto actual =
                measure_actual(found.placement, measure_cfg);
            double total = 0.0;
            for (std::size_t i = 0; i < actual.size(); ++i)
                total += actual[i] * instances[i].units;
            const double qos_time =
                actual[static_cast<std::size_t>(mix.qos_index)];
            table.add_row(
                {mix.name,
                 mix.apps[static_cast<std::size_t>(mix.qos_index)],
                 variant.name, fmt_fixed(qos_time, 3),
                 qos_time <= limit ? "yes" : "VIOLATED",
                 fmt_fixed(total / 16.0, 3)});
        }
    }
    table.print(std::cout);
    std::cout << "\n(total is the VM-weighted mean normalized runtime "
                 "of the four workloads)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"iters", "qos", "chains", "seed", "reps", "threads"},
                     run);
}
