/**
 * @file
 * Micro benchmark of the simulation-engine hot path (indexed event
 * queue, per-proc records with tagged completions, node-local
 * re-solves): events per second and engine bytes per node across a
 * node sweep — the recorded artifact behind the DESIGN.md §7 claim
 * that the engine runs 10k-node clusters in seconds.
 *
 * The scenario is churn-heavy to stress the re-solve path: every node
 * hosts `--tenants` single-proc tenants, every proc executes
 * `--segments` jittered compute segments, and on each segment
 * completion the tenant re-rolls its demand with 30% probability (a
 * phase change that re-solves its node and reschedules its
 * neighbours). All randomness is per-tenant, so the generated event
 * load is a pure function of the scale, never of engine internals.
 *
 * --min-eps N makes the bench exit nonzero when events/sec at the
 * LARGEST swept scale drops below N — the CI
 * short-sweep smoke (`--scales 8,100 --min-eps ...`) uses it as a
 * regression floor.
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"

using namespace imc;
using namespace imc::sim;

namespace {

double
seconds_of(const std::chrono::steady_clock::time_point& t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One tenant's demand, re-rolled on phase changes. */
TenantDemand
roll_demand(Rng& rng)
{
    TenantDemand d;
    d.gen_mb = rng.uniform(0.5, 12.0);
    d.need_mb = rng.uniform(0.5, 16.0);
    d.bw_gbps = rng.uniform(0.2, 6.0);
    d.mem_intensity = rng.uniform(0.1, 0.9);
    d.cache_gamma = rng.uniform(0.3, 1.2);
    return d;
}

/**
 * Drives the churn scenario: owns per-tenant compute chains so the
 * recursive "segment done -> maybe churn -> next segment" callbacks
 * have stable state to close over.
 */
class Driver {
  public:
    Driver(Simulation& sim, int tenants_per_node, int segments,
           std::uint64_t seed)
        : sim_(sim), segments_(segments)
    {
        const int nodes = sim.spec().num_nodes;
        tenants_.reserve(static_cast<std::size_t>(nodes) *
                         static_cast<std::size_t>(tenants_per_node));
        for (int node = 0; node < nodes; ++node) {
            for (int k = 0; k < tenants_per_node; ++k) {
                Tenant t;
                // Per-tenant stream: the event load does not depend
                // on callback order.
                t.rng = Rng(seed ^
                            (0x9E3779B97F4A7C15ULL *
                             (tenants_.size() + 1)));
                t.tenant = sim_.add_tenant(node, roll_demand(t.rng));
                t.proc = sim_.add_proc(t.tenant);
                t.left = segments_;
                tenants_.push_back(std::move(t));
            }
        }
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            start_segment(i);
    }

  private:
    struct Tenant {
        TenantId tenant = 0;
        ProcId proc = 0;
        int left = 0;
        Rng rng;
    };

    void start_segment(std::size_t i)
    {
        auto& t = tenants_[i];
        const double work = t.rng.uniform(0.5, 1.5);
        sim_.compute(t.proc, work, [this, i] { finish_segment(i); });
    }

    void finish_segment(std::size_t i)
    {
        auto& t = tenants_[i];
        if (--t.left <= 0)
            return;
        if (t.rng.uniform() < 0.3)
            sim_.set_demand(t.tenant, roll_demand(t.rng));
        start_segment(i);
    }

    Simulation& sim_;
    int segments_;
    std::vector<Tenant> tenants_;
};

struct RunResult {
    double wall = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;
    std::size_t bytes_per_node = 0;
    std::uint64_t solves = 0;
};

RunResult
run_once(int nodes, int tenants_per_node, int segments,
         std::uint64_t seed)
{
    Simulation simulation(ClusterSpec::scaled(nodes));
    const auto t0 = std::chrono::steady_clock::now();
    Driver driver(simulation, tenants_per_node, segments, seed);
    simulation.run(/*max_events=*/500'000'000);
    RunResult r;
    r.wall = seconds_of(t0);
    r.events = simulation.events_executed();
    r.events_per_sec =
        r.wall > 0.0 ? static_cast<double>(r.events) / r.wall : 0.0;
    r.bytes_per_node = simulation.approx_bytes() /
                       static_cast<std::size_t>(nodes);
    r.solves = simulation.stats().contention_solves;
    return r;
}

/** Best wall time over @p runs repeats (the runs are identical). */
RunResult
run_best(int nodes, int tenants_per_node, int segments,
         std::uint64_t seed, int runs)
{
    RunResult best;
    for (int i = 0; i < runs; ++i) {
        RunResult r = run_once(nodes, tenants_per_node, segments, seed);
        if (i == 0 || r.wall < best.wall)
            best = r;
    }
    best.events_per_sec =
        best.wall > 0.0
            ? static_cast<double>(best.events) / best.wall
            : 0.0;
    return best;
}

int
run(const Cli& cli)
{
    auto scales = cli.get_int_list("scales");
    if (scales.empty())
        scales = {8, 100, 1000, 10000};
    for (const int n : scales)
        require(n > 0 && n <= 1'000'000,
                "--scales entries must be in [1, 1000000], got " +
                    std::to_string(n));
    const int tenants_per_node = cli.get_int("tenants", 10);
    const int segments = cli.get_int("segments", 10);
    const int runs = cli.get_int("runs", 1);
    require(runs >= 1, "--runs must be >= 1");
    const double min_eps = cli.get_double("min-eps", 0.0);
    const std::uint64_t seed = cli.get_u64("seed", 20260807);

    std::cout << "Sim-engine scale bench: " << tenants_per_node
              << " single-proc tenants/node, " << segments
              << " compute segments each, 30% demand churn "
              << "(seed=" << seed << ")\n\n";

    Table table({"nodes", "units", "events", "wall (s)", "events/sec",
                 "bytes/node"});
    double largest_eps = 0.0;
    for (const int nodes : scales) {
        const std::uint64_t units =
            static_cast<std::uint64_t>(nodes) *
            static_cast<std::uint64_t>(tenants_per_node);
        const RunResult r =
            run_best(nodes, tenants_per_node, segments, seed, runs);
        largest_eps = r.events_per_sec;
        table.add_row({std::to_string(nodes), std::to_string(units),
                       std::to_string(r.events), fmt_fixed(r.wall, 3),
                       fmt_fixed(r.events_per_sec, 0),
                       std::to_string(r.bytes_per_node)});
    }
    table.print(std::cout);

    if (min_eps > 0.0) {
        const bool ok = largest_eps >= min_eps;
        std::cout << "\nevents/sec floor at largest scale: "
                  << fmt_fixed(largest_eps, 0) << " vs "
                  << fmt_fixed(min_eps, 0) << " required: "
                  << (ok ? "ok" : "BELOW FLOOR") << '\n';
        if (!ok)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return tool_main(argc, argv,
                     {"scales", "tenants", "segments", "runs", "min-eps",
                      "seed"},
                     run);
}
