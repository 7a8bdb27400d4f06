/**
 * @file
 * Capacity planning: which four workloads can share the cluster with
 * the least total slowdown — and how should they be placed?
 *
 * Given a set of candidate batch workloads and a distributed
 * application that must run, this example scores every choice of
 * three co-tenants from the candidate list: for each combination it
 * searches for the best interference-aware placement and reports the
 * VM-weighted total normalized runtime, so an operator can decide
 * what to consolidate *before* touching production.
 */

#include <algorithm>
#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

using namespace imc;
using namespace imc::placement;

namespace {

int
run(const Cli& cli)
{
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("seed", 5);
    cfg.reps = cli.get_int("reps", 2);

    const auto& app = workload::find_app(cli.get("app", "N.mg"));
    auto candidates = cli.get_list("candidates");
    if (candidates.empty())
        candidates = {"C.gcc", "C.mcf", "C.libq", "H.KM", "S.PR"};
    const int iters = cli.get_int("iters", 2500);
    const int chains = cli.get_int("chains", 0);
    workload::RunService service(cli.get_int("threads", 0));

    std::cout << "Must-run application: " << app.abbrev
              << "; choosing 3 co-tenants out of "
              << candidates.size() << " candidates\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 &service);

    struct Option {
        std::string combo;
        double predicted_total;
        double app_time;
        std::string layout;
    };
    std::vector<Option> options;

    const auto n = candidates.size();
    for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
            for (std::size_t c = b + 1; c < n; ++c) {
                std::vector<Instance> instances{
                    Instance{app, 4},
                    Instance{workload::find_app(candidates[a]), 4},
                    Instance{workload::find_app(candidates[b]), 4},
                    Instance{workload::find_app(candidates[c]), 4}};
                const ModelEvaluator evaluator(registry, instances);
                Rng rng(cfg.seed +
                        static_cast<std::uint64_t>(a * 64 + b * 8 + c));
                auto initial =
                    Placement::random(instances, cfg.cluster, rng);
                AnnealOptions opts;
                opts.iterations = iters;
                opts.seed = rng.next_u64();
                opts.chains = chains;
                const auto found =
                    anneal(initial, evaluator,
                           Goal::MinimizeTotalTime, std::nullopt,
                           opts);
                const auto times =
                    evaluator.predict(found.placement);
                options.push_back(Option{
                    candidates[a] + "+" + candidates[b] + "+" +
                        candidates[c],
                    found.total_time / 16.0, times[0],
                    found.placement.to_string()});
            }
        }
    }

    std::sort(options.begin(), options.end(),
              [](const Option& x, const Option& y) {
                  return x.predicted_total < y.predicted_total;
              });

    Table table({"co-tenant combination", "predicted mean norm.time",
                 "predicted " + app.abbrev + " time"});
    for (const auto& option : options) {
        table.add_row({option.combo,
                       fmt_fixed(option.predicted_total, 3),
                       fmt_fixed(option.app_time, 3)});
    }
    table.print(std::cout);
    std::cout << "\nBest combination: " << options.front().combo
              << "\n  placement: " << options.front().layout << '\n';

    // Sanity-check the winner on the simulated cluster.
    {
        const auto& best = options.front();
        std::vector<std::string> picked;
        std::size_t pos = 0;
        while (pos <= best.combo.size()) {
            const auto plus = best.combo.find('+', pos);
            picked.push_back(best.combo.substr(
                pos, plus == std::string::npos ? std::string::npos
                                               : plus - pos));
            if (plus == std::string::npos)
                break;
            pos = plus + 1;
        }
        std::vector<Instance> instances{Instance{app, 4}};
        for (const auto& abbrev : picked)
            instances.push_back(
                Instance{workload::find_app(abbrev), 4});
        const ModelEvaluator evaluator(registry, instances);
        Rng rng(cfg.seed + 999);
        auto initial = Placement::random(instances, cfg.cluster, rng);
        AnnealOptions opts;
        opts.iterations = iters;
        opts.seed = 4242;
        opts.chains = chains;
        const auto found = anneal(initial, evaluator,
                                  Goal::MinimizeTotalTime,
                                  std::nullopt, opts);
        workload::RunConfig verify = cfg;
        verify.salt = hash_string("capacity-verify");
        const auto actual = measure_actual(found.placement, verify);
        std::cout << "  measured normalized times: ";
        for (std::size_t i = 0; i < actual.size(); ++i) {
            std::cout << instances[i].app.abbrev << "="
                      << fmt_fixed(actual[i], 3) << ' ';
        }
        std::cout << '\n';
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"app", "candidates", "iters", "chains", "seed", "reps",
                      "threads"},
                     run);
}
