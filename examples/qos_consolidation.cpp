/**
 * @file
 * QoS-aware consolidation: a mission-critical distributed application
 * must keep at least a target fraction of its solo performance while
 * three other workloads are packed onto the same cluster.
 *
 * Shows the Section 5.2 workflow end to end: model building, the
 * QoS-constrained annealing search, and verification of the chosen
 * placement on the (simulated) cluster — including what a random
 * placement would have done to the critical application.
 */

#include <iostream>

#include "common/cli.hpp"
#include "common/strings.hpp"
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
    cfg.seed = cli.get_u64("seed", 11);
    cfg.reps = cli.get_int("reps", 3);
    const double qos_perf = cli.get_double("qos", 0.8);
    const double limit = 1.0 / qos_perf;

    const std::string critical = cli.get("critical", "N.cg");
    auto others = cli.get_list("others");
    if (others.empty())
        others = {"C.mcf", "S.WC", "M.zeus"};

    std::vector<Instance> instances{
        Instance{workload::find_app(critical), 4}};
    for (const auto& abbrev : others)
        instances.push_back(Instance{workload::find_app(abbrev), 4});
    workload::RunService service(cli.get_int("threads", 0));
    AnnealOptions opts;
    opts.iterations = cli.get_int("iters", 4000);
    opts.seed = cfg.seed + 1;
    opts.chains = cli.get_int("chains", 0); // all hardware threads

    std::cout << "Mission-critical: " << critical
              << " (must keep >= " << fmt_pct(qos_perf, 0)
              << " of solo performance, i.e. normalized time <= "
              << fmt_fixed(limit, 3) << ")\nCo-tenants: ";
    for (const auto& abbrev : others)
        std::cout << abbrev << ' ';
    std::cout << "\n\nProfiling models...\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 &service);
    const ModelEvaluator evaluator(registry, instances);

    // A random placement as the "what if we don't think about it"
    // baseline.
    Rng rng(cfg.seed);
    const auto random_placement =
        Placement::random(instances, cfg.cluster, rng);

    // The QoS-aware search.
    QosConstraint qos{0, limit};
    const auto found = anneal(random_placement, evaluator,
                              Goal::MinimizeTotalTime, qos, opts);

    std::cout << "Chosen placement: " << found.placement.to_string()
              << "\nModel says QoS "
              << (found.qos_met ? "holds" : "CANNOT be satisfied")
              << "\n\nVerifying on the cluster...\n";

    workload::RunConfig verify = cfg;
    verify.salt = hash_string("qos-example");
    const auto random_actual = measure_actual(random_placement, verify);
    const auto chosen_actual = measure_actual(found.placement, verify);

    std::cout << "\n  " << pad_right("workload", 10)
              << pad_left("random", 10) << pad_left("qos-aware", 12)
              << '\n';
    for (std::size_t i = 0; i < instances.size(); ++i) {
        std::cout << "  "
                  << pad_right(instances[i].app.abbrev +
                                   (i == 0 ? " *" : ""),
                               10)
                  << pad_left(fmt_fixed(random_actual[i], 3), 10)
                  << pad_left(fmt_fixed(chosen_actual[i], 3), 12)
                  << '\n';
    }
    const bool random_ok = random_actual[0] <= limit;
    const bool chosen_ok = chosen_actual[0] <= limit;
    std::cout << "\nQoS of " << critical << ": random placement "
              << (random_ok ? "holds" : "VIOLATED") << " ("
              << fmt_fixed(random_actual[0], 3)
              << "), QoS-aware placement "
              << (chosen_ok ? "holds" : "VIOLATED") << " ("
              << fmt_fixed(chosen_actual[0], 3) << ")\n";
    return chosen_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"critical", "others", "qos", "iters", "chains", "seed",
                      "reps", "threads"},
                     run);
}
