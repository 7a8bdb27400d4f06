/**
 * @file
 * Ablation: simulated annealing vs exhaustive signature enumeration.
 * On the 4x4-unit/8-node configuration the model-predicted optimum
 * can be computed exactly, so this harness measures (a) whether SA
 * reaches it, (b) how many iterations it needs, and (c) the size of
 * the exact search space — justifying the paper's choice of a
 * stochastic search that also scales beyond enumerable cases.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/annealer.hpp"
#include "placement/enumerate.hpp"
#include "placement/mixes.hpp"

using namespace imc;
using namespace imc::placement;

namespace {

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const auto service = benchutil::service_from_cli(cli);
    // Default 1 keeps the recorded results reproducible.
    const int chains = cli.get_int("chains", 1);

    std::vector<Mix> mixes;
    const auto mix_names = cli.get_list("mixes");
    for (const auto& mix : table5_mixes()) {
        if (mix_names.empty() ||
            std::find(mix_names.begin(), mix_names.end(), mix.name) !=
                mix_names.end())
            mixes.push_back(mix);
    }

    std::cout << "Ablation: annealing vs exhaustive enumeration of "
                 "co-location signatures\n(cluster="
              << cfg.cluster.name << ", seed=" << cfg.seed
              << ", reps=" << cfg.reps << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());

    Table table({"mix", "signatures", "exact best", "exact worst",
                 "SA@250", "SA@1000", "SA@4000", "SA hit optimum?"});
    for (const auto& mix : mixes) {
        const auto instances = instantiate(mix, cfg.cluster);
        const ModelEvaluator eval(registry, instances);
        const auto exact =
            enumerate_extremes(instances, cfg.cluster, eval);

        Rng rng(hash_combine(cfg.seed,
                             hash_string("ablation-pl:" + mix.name)));
        auto initial = Placement::random(instances, cfg.cluster, rng);
        auto run_sa = [&](int iterations) {
            AnnealOptions opts;
            opts.iterations = iterations;
            opts.seed =
                hash_combine(cfg.seed, hash_string(mix.name));
            opts.chains = chains;
            return anneal(initial, eval, Goal::MinimizeTotalTime,
                          std::nullopt, opts)
                .total_time;
        };
        const double sa250 = run_sa(250);
        const double sa1000 = run_sa(1000);
        const double sa4000 = run_sa(4000);
        table.add_row(
            {mix.name, std::to_string(exact.signatures),
             fmt_fixed(exact.best_total, 3),
             fmt_fixed(exact.worst_total, 3), fmt_fixed(sa250, 3),
             fmt_fixed(sa1000, 3), fmt_fixed(sa4000, 3),
             sa4000 <= exact.best_total + 1e-6 ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << "\n(totals are model-predicted VM-weighted normalized "
                 "times; lower is better)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"mixes", "chains", "seed", "reps", "threads"},
                     run);
}
