/**
 * @file
 * Micro benchmark of the event-driven incremental scheduler
 * (sched::SchedulerCore driven by sched::replay): per-event decision
 * latency (p50/p99/max) and placement quality versus a full batch
 * re-anneal over the surviving apps, swept across cluster scales —
 * the recorded artifact behind the DESIGN.md §8 claim that imcd keeps
 * p99 decision latency in low milliseconds at thousand-node scale
 * while staying within a few percent of the batch oracle.
 *
 * For every scale N the bench generates a seeded synthetic trace
 * (Poisson arrivals, lognormal lifetimes, mixed archetypes, a node
 * crash/repair process) whose arrival count is fixed (--arrivals) and
 * whose mean lifetime is chosen so steady-state occupancy targets
 * --occupancy of the cluster's slots: bigger clusters hold
 * proportionally more live apps, which is what stresses the
 * incremental paths. The trace replays once through the scheduler;
 * the oracle is one standard annealer run (iterations scaled with the
 * live app count) seeded from the scheduler's own final placement,
 * exactly the "periodic batch re-solve" a non-incremental manager
 * would run.
 *
 * Decision latencies are wall-clock and therefore vary run to run;
 * decisions themselves are byte-identical for a fixed seed (the
 * determinism suite pins that). The quality gap is deterministic.
 *
 * --max-p99 (ms) and --max-gap (percent) make the bench exit nonzero
 * when the LARGEST swept scale misses either floor — the CI smoke
 * uses small scales with both floors armed.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/trace.hpp"
#include "workload/run_service.hpp"

using namespace imc;

namespace {

/** The per-scale replay settings, read once from the flags. */
struct ScaleOptions {
    int arrivals = 0;
    double occupancy = 0.0;
    int candidates = 0;
    int polish = 0;
    std::uint64_t seed = 0;
};

struct ScaleResult {
    sched::ReplayResult replay;
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    double gap_pct = 0.0;
};

ScaleResult
run_scale(int nodes, const ScaleOptions& opts,
          core::ModelRegistry& registry)
{
    sched::TraceGenOptions gopts;
    gopts.num_nodes = nodes;
    gopts.slots_per_node = 2;
    gopts.duration = 1000.0;
    gopts.arrival_rate = opts.arrivals / gopts.duration;
    // Steady-state live apps ~ rate x lifetime; mean units of
    // uniform{1..4} is 2.5, so target occupancy fixes the lifetime.
    const double target_apps =
        opts.occupancy * nodes * gopts.slots_per_node / 2.5;
    gopts.mean_lifetime = target_apps / gopts.arrival_rate;
    gopts.max_units = 4;
    gopts.slo_fraction = 0.3;
    gopts.crash_rate = 0.02; // ~20 crash/repair cycles per trace
    gopts.mean_repair = 100.0;
    gopts.seed = opts.seed;
    const sched::Trace trace = sched::generate_trace(gopts);

    sched::ReplayOptions ropts;
    ropts.sched.candidate_nodes = opts.candidates;
    ropts.sched.polish_proposals = opts.polish;
    ropts.sched.seed = opts.seed;
    ropts.oracle_every = 0; // final comparison only
    ropts.oracle_iterations = std::max(
        4000, 20 * static_cast<int>(target_apps));
    ropts.oracle_seed = opts.seed + 1;

    placement::ModelEvaluator evaluator(registry, {});
    ScaleResult r;
    r.replay = sched::replay(trace, evaluator, ropts);
    const std::vector<double>& lat = r.replay.latencies_ms;
    r.p50 = lat.empty() ? 0.0 : percentile(lat, 50.0);
    r.p99 = lat.empty() ? 0.0 : percentile(lat, 99.0);
    r.max = lat.empty() ? 0.0
                        : *std::max_element(lat.begin(), lat.end());
    if (!r.replay.oracle.empty())
        r.gap_pct = r.replay.oracle.back().gap() * 100.0;
    return r;
}

int
run(const Cli& cli)
{
    auto scales = cli.get_int_list("scales");
    if (scales.empty())
        scales = {100, 1000, 5000};
    for (const int n : scales)
        require(n > 0 && n <= 100'000,
                "--scales entries must be in [1, 100000], got " +
                    std::to_string(n));
    const double max_p99 = cli.get_double("max-p99", 0.0);
    const double max_gap = cli.get_double("max-gap", 0.0);
    ScaleOptions opts;
    opts.arrivals = cli.get_int("arrivals", 10000);
    opts.occupancy = cli.get_double("occupancy", 0.8);
    opts.candidates = cli.get_int("candidates", 16);
    opts.polish = cli.get_int("polish", 128);
    opts.seed = cli.get_u64("seed", 1);

    // One registry across scales: the same 6 archetypes at unit
    // counts 1-4 back every trace.
    workload::RunConfig cfg;
    cfg.seed = cli.get_u64("profile-seed", 42);
    cfg.reps = 2;
    workload::RunService service(cli.get_int("threads", 0));
    core::ModelBuildOptions bopts;
    bopts.model_cache_dir = cli.get("model-cache", "");

    std::cout << "Event-driven scheduler bench: " << opts.arrivals
              << " Poisson arrivals over 1000s, occupancy target "
              << fmt_fixed(opts.occupancy, 2)
              << ", crash/repair process on, polish " << opts.polish
              << " proposals (seed=" << opts.seed << ")\n"
              << "oracle: one batch anneal over the surviving apps "
                 "after the last event\n\n";

    core::ModelRegistry registry(cfg, bopts, &service);
    for (int units = 1; units <= 4; ++units)
        registry.prefetch(sched::default_trace_apps(), units);

    Table table({"nodes", "events", "admitted", "evicted", "apps@end",
                 "p50 (ms)", "p99 (ms)", "max (ms)", "sched total",
                 "oracle total", "gap"});
    double last_p99 = 0.0;
    double last_gap = 0.0;
    for (const int nodes : scales) {
        const ScaleResult r = run_scale(nodes, opts, registry);
        last_p99 = r.p99;
        last_gap = r.gap_pct;
        const auto& o = r.replay.oracle;
        table.add_row(
            {std::to_string(nodes), std::to_string(r.replay.events),
             std::to_string(r.replay.admitted),
             std::to_string(r.replay.evictions),
             std::to_string(r.replay.final_apps), fmt_fixed(r.p50, 3),
             fmt_fixed(r.p99, 3), fmt_fixed(r.max, 3),
             fmt_fixed(r.replay.final_total_time, 2),
             o.empty() ? "-" : fmt_fixed(o.back().oracle_total, 2),
             o.empty() ? "-" : fmt_fixed(r.gap_pct, 2) + "%"});
    }
    table.print(std::cout);

    bool ok = true;
    if (max_p99 > 0.0) {
        const bool pass = last_p99 <= max_p99;
        std::cout << "\np99 decision latency at largest scale: "
                  << fmt_fixed(last_p99, 3) << " ms vs "
                  << fmt_fixed(max_p99, 3)
                  << " ms allowed: " << (pass ? "ok" : "OVER BUDGET")
                  << '\n';
        ok = ok && pass;
    }
    if (max_gap > 0.0) {
        const bool pass = last_gap <= max_gap;
        std::cout << (max_p99 > 0.0 ? "" : "\n")
                  << "quality gap vs batch oracle at largest scale: "
                  << fmt_fixed(last_gap, 2) << "% vs "
                  << fmt_fixed(max_gap, 2)
                  << "% allowed: " << (pass ? "ok" : "OVER BUDGET")
                  << '\n';
        ok = ok && pass;
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"scales", "arrivals", "occupancy", "candidates",
                      "polish", "seed", "profile-seed", "threads",
                      "model-cache", "max-p99", "max-gap"},
                     run);
}
