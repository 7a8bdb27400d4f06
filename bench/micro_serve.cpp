/**
 * @file
 * Micro benchmark of tail-latency (p99) QoS placement for the
 * latency-serving workload family (workload::service_apps()).
 *
 * A mix of two service tiers and two batch interferers (--apps,
 * default V.srch,V.web,C.mcf,C.libq) is placed three ways on the
 * paper's 8-node/2-slot cluster:
 *
 *   random — a seeded uniformly random valid placement,
 *   perf   — the annealer minimizing VM-weighted total normalized
 *            time with no SLO term (throughput-only), and
 *   qos    — the same search with AnnealOptions::slo_targets armed:
 *            each service instance carries a normalized-p99 target
 *            (--slo, default 1.30) scored via placement::slo_debt.
 *
 * Every chosen placement is then executed on the simulated cluster
 * (measure_actual); for service instances the measured "normalized
 * time" is normalized p99 request latency (RunningApp::qos_metric),
 * so the table reports real tail behaviour, not makespans. The
 * headline claim this bench records: the throughput-only search
 * shelters the hyper-sensitive batch app (C.mcf) at the service
 * tiers' expense and violates their p99 targets, while the qos
 * search shelters the tiers instead — zero violations at a modest
 * total-time cost. The serving analogue of Figure 10.
 *
 * Output is a pure function of the flags: byte-identical at any
 * --threads setting.
 *
 * --max-p99 X makes the bench exit nonzero when the qos placement's
 * worst service-instance normalized p99 exceeds X (0 disables) — the
 * CI smoke arms it to pin the QoS win end to end.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "placement/annealer.hpp"
#include "placement/evaluator.hpp"
#include "placement/slo.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::placement;

namespace {

/** The serving mix: two latency tiers, two batch co-runners. */
std::vector<Instance>
serving_mix(const Cli& cli, const sim::ClusterSpec& cluster)
{
    std::vector<std::string> names = cli.get_list("apps");
    if (names.empty())
        names = {"V.srch", "V.web", "C.mcf", "C.libq"};
    require(!names.empty() &&
                cluster.num_nodes * cluster.slots_per_node %
                        static_cast<int>(names.size()) ==
                    0,
            "--apps must divide the cluster slots");
    const int units = cluster.num_nodes * cluster.slots_per_node /
                      static_cast<int>(names.size());
    std::vector<Instance> instances;
    for (const auto& name : names)
        instances.push_back(
            Instance{workload::find_app(name), units});
    return instances;
}

/** One placed-and-measured strategy. */
struct Outcome {
    std::string name;
    std::vector<double> times;
    double weighted_total = 0.0;
    double worst_service_p99 = 0.0;
    int violations = 0;
};

Outcome
measure(const std::string& name, const Placement& placement,
        const std::vector<Instance>& instances,
        const std::vector<double>& slo,
        const workload::RunConfig& cfg)
{
    workload::RunConfig measure_cfg = cfg;
    measure_cfg.salt = hash_string("micro_serve:" + name);
    Outcome out;
    out.name = name;
    out.times = measure_actual(placement, measure_cfg);
    double units_total = 0.0;
    for (std::size_t i = 0; i < out.times.size(); ++i) {
        const double units = instances[i].units;
        out.weighted_total += out.times[i] * units;
        units_total += units;
        if (instances[i].app.kind == workload::AppKind::Service)
            out.worst_service_p99 =
                std::max(out.worst_service_p99, out.times[i]);
    }
    out.weighted_total /= units_total;
    out.violations = slo_violations(out.times, slo);
    return out;
}

int
run(const Cli& cli)
{
    const auto cfg = benchutil::config_from_cli(cli);
    const int iters = cli.get_int("iters", 4000);
    const double slo_target = cli.get_double("slo", 1.30);
    const double max_p99 = cli.get_double("max-p99", 0.0);
    require(slo_target > 0.0, "--slo must be > 0");
    // Default 2 rides out local optima (the violation-first selection
    // needs one chain to land in the feasible basin) while keeping
    // the recorded results reproducible at any thread count.
    const int chains = cli.get_int("chains", 2);
    const auto service = benchutil::service_from_cli(cli);

    const auto instances = serving_mix(cli, cfg.cluster);
    std::vector<double> slo(instances.size(), 0.0);
    for (std::size_t i = 0; i < instances.size(); ++i) {
        if (instances[i].app.kind == workload::AppKind::Service)
            slo[i] = slo_target;
    }

    std::cout << "micro_serve: p99 QoS placement for the serving mix\n"
              << "(cluster=" << cfg.cluster.name
              << ", service p99 target <= " << fmt_fixed(slo_target, 2)
              << "x solo, seed=" << cfg.seed
              << ", reps=" << cfg.reps << ", iters=" << iters
              << ")\n\n";

    core::ModelRegistry registry(cfg, core::ModelBuildOptions{},
                                 service.get());
    const ModelEvaluator evaluator(registry, instances);

    Rng rng(hash_combine(cfg.seed, hash_string("micro_serve")));
    const auto initial = Placement::random(instances, cfg.cluster, rng);

    AnnealOptions perf_opts;
    perf_opts.iterations = iters;
    perf_opts.seed = hash_combine(cfg.seed, hash_string("anneal"));
    perf_opts.chains = chains;
    const auto perf = anneal(initial, evaluator,
                             Goal::MinimizeTotalTime, std::nullopt,
                             perf_opts);

    AnnealOptions qos_opts = perf_opts;
    qos_opts.slo_targets = slo;
    const auto qos = anneal(initial, evaluator,
                            Goal::MinimizeTotalTime, std::nullopt,
                            qos_opts);

    std::vector<Outcome> outcomes;
    outcomes.push_back(
        measure("random", initial, instances, slo, cfg));
    outcomes.push_back(
        measure("perf", perf.placement, instances, slo, cfg));
    outcomes.push_back(
        measure("qos", qos.placement, instances, slo, cfg));

    std::vector<std::string> header{"placement"};
    for (const auto& inst : instances) {
        const bool svc = inst.app.kind == workload::AppKind::Service;
        header.push_back(inst.app.abbrev + (svc ? " p99" : ""));
    }
    header.insert(header.end(), {"worst service p99",
                                 "p99 violations",
                                 "total norm.time (weighted)"});
    Table table(header);
    for (const auto& out : outcomes) {
        std::vector<std::string> row{out.name};
        for (const double t : out.times)
            row.push_back(fmt_fixed(t, 3));
        row.insert(row.end(),
                   {fmt_fixed(out.worst_service_p99, 3),
                    std::to_string(out.violations),
                    fmt_fixed(out.weighted_total, 3)});
        table.add_row(row);
    }
    table.print(std::cout);
    std::cout << "\n(service columns are normalized p99 request "
                 "latency — measured p99 over the solo-run p99; "
                 "violations counts instances beyond their target)\n";

    const auto& best = outcomes.back();
    if (max_p99 > 0.0 && best.worst_service_p99 > max_p99) {
        std::cerr << "FAIL: qos placement worst service p99 "
                  << fmt_fixed(best.worst_service_p99, 3)
                  << " exceeds --max-p99 " << fmt_fixed(max_p99, 3)
                  << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"apps", "iters", "slo", "chains", "max-p99", "seed",
                      "reps", "threads"},
                     run);
}
