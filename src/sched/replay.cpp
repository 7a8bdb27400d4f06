#include "sched/replay.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "common/obs.hpp"
#include "placement/annealer.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/runner.hpp"

namespace imc::sched {

namespace {

/** Live sim-side state of one executed (attached) app. */
struct ExecApp {
    std::unique_ptr<workload::RestartingApp> app;
    std::vector<sim::NodeId> nodes;
};

/** Seed of execute-mode launch randomness. */
constexpr std::uint64_t kExecSeed = 7;

/** Execute-mode world: the simulation plus attached apps. */
class Executor {
  public:
    explicit Executor(const Trace& trace)
        : sim_(sim::ClusterSpec::scaled(trace.num_nodes)), rng_(kExecSeed)
    {
        for (const auto& e : trace.events)
            require(e.kind != EventKind::kJoin,
                    "replay: --execute requires a trace without join "
                    "events (sim nodes cannot rejoin)");
    }

    /** Run the simulation forward to trace time @p t. */
    void advance(double t)
    {
        if (t <= sim_.now())
            return;
        bool reached = false;
        sim_.schedule(t - sim_.now(), [&reached] { reached = true; });
        while (!reached && sim_.step()) {
        }
    }

    void crash(sim::NodeId node)
    {
        if (!sim_.node_crashed(node))
            sim_.crash_node(node);
    }

    /**
     * Make the sim match the core's placement: detach apps the core
     * no longer places, re-attach apps whose node set changed
     * (migration = restart at the paper's VM granularity), attach
     * newly admitted apps.
     */
    void reconcile(const SchedulerCore& core)
    {
        for (auto it = apps_.begin(); it != apps_.end();) {
            const int index = core.index_of(it->first);
            if (index < 0) {
                retire(std::move(it->second.app));
                it = apps_.erase(it);
                continue;
            }
            const std::vector<sim::NodeId> nodes =
                core.placement().nodes_of(index);
            if (nodes != it->second.nodes) {
                retire(std::move(it->second.app));
                it->second.app = launch_app(
                    it->first,
                    core.placement()
                        .instances()[static_cast<std::size_t>(index)]
                        .app,
                    nodes);
                it->second.nodes = nodes;
            }
            ++it;
        }
        for (int i = 0; i < core.num_apps(); ++i) {
            const std::int64_t id = core.id_at(i);
            if (apps_.find(id) != apps_.end())
                continue;
            ExecApp ea;
            ea.nodes = core.placement().nodes_of(i);
            ea.app = launch_app(
                id,
                core.placement()
                    .instances()[static_cast<std::size_t>(i)]
                    .app,
                ea.nodes);
            apps_.emplace(id, std::move(ea));
        }
    }

    double now() const { return sim_.now(); }
    std::uint64_t events_executed() const
    {
        return sim_.events_executed();
    }

    /** Detach everything (clean shutdown before destruction). */
    void drain()
    {
        for (auto& [id, ea] : apps_)
            retire(std::move(ea.app));
        apps_.clear();
    }

  private:
    /**
     * Detach @p app but keep it alive until the Executor (and with it
     * the simulation) is destroyed: the sim queue may still hold
     * events capturing the app — task-pool shuffle events, zero-delay
     * grants, barrier releases — and detach() makes them dormant
     * no-ops, not cancelled. Destroying the app while they are queued
     * is a use-after-free.
     */
    void retire(std::unique_ptr<workload::RestartingApp> app)
    {
        app->detach();
        retired_.push_back(std::move(app));
    }

    std::unique_ptr<workload::RestartingApp>
    launch_app(std::int64_t id, const workload::AppSpec& spec,
               const std::vector<sim::NodeId>& nodes)
    {
        workload::LaunchOptions lo;
        lo.nodes = nodes;
        lo.rng = rng_.fork("app").fork(static_cast<std::uint64_t>(id));
        return std::make_unique<workload::RestartingApp>(
            sim_, spec, std::move(lo));
    }

    sim::Simulation sim_;
    Rng rng_;
    std::map<std::int64_t, ExecApp> apps_;
    std::vector<std::unique_ptr<workload::RestartingApp>> retired_;
};

/** Batch re-anneal over the surviving apps (pure observation). */
OracleSample
oracle_sample(const SchedulerCore& core,
              const placement::Evaluator& evaluator,
              const ReplayOptions& opts)
{
    OracleSample s;
    s.event = core.events_seen();
    s.apps = core.num_apps();
    s.sched_total = core.total_time();
    placement::AnnealOptions aopts;
    aopts.iterations = opts.oracle_iterations;
    aopts.seed = opts.oracle_seed;
    aopts.chains = opts.oracle_chains;
    const placement::AnnealResult best = placement::anneal(
        core.placement(), evaluator,
        placement::Goal::MinimizeTotalTime, std::nullopt, aopts);
    s.oracle_total = best.total_time;
    return s;
}

/** replay() up to the heap release: every event, then the oracle. */
ReplayResult
replay_events(const Trace& trace, placement::Evaluator& evaluator,
              const ReplayOptions& opts)
{
    require(trace.num_nodes >= 1, "replay: trace has no cluster");
    require(evaluator.supports_dynamic(),
            "replay: evaluator must support dynamic add/remove");

    SchedulerCore core(evaluator, trace.num_nodes,
                       trace.slots_per_node, opts.sched);
    std::optional<Executor> exec;
    if (opts.execute)
        exec.emplace(trace);

    ReplayResult r;
    r.latencies_ms.reserve(trace.events.size());
    for (const auto& e : trace.events) {
        if (exec)
            exec->advance(e.time);

        const auto t0 = std::chrono::steady_clock::now();
        {
            IMC_OBS_SPAN(span, "sched.event");
            switch (e.kind) {
              case EventKind::kArrive: {
                ++r.arrivals;
                const Admission adm = core.arrive(
                    e.id, workload::find_app(e.app), e.units, e.slo);
                r.evictions += static_cast<int>(adm.evicted.size());
                if (adm.admitted) {
                    ++r.admitted;
                    IMC_OBS_COUNT("sched.admitted");
                } else if (adm.fault_rejected) {
                    ++r.fault_rejected;
                    IMC_OBS_COUNT("sched.fault_rejected");
                } else {
                    ++r.rejected;
                    IMC_OBS_COUNT("sched.rejected");
                }
                break;
              }
              case EventKind::kDepart:
                ++r.departures;
                if (core.depart(e.id))
                    IMC_OBS_COUNT("sched.departed");
                break;
              case EventKind::kCrash: {
                ++r.crashes;
                if (exec)
                    exec->crash(e.node);
                const RepairOutcome out = core.crash(e.node);
                r.moved_units += out.moved_units;
                r.evictions += static_cast<int>(out.evicted.size());
                IMC_OBS_COUNT("sched.crashes");
                break;
              }
              case EventKind::kJoin:
                ++r.joins;
                core.join(e.node);
                IMC_OBS_COUNT("sched.joins");
                break;
            }
        }
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        r.latencies_ms.push_back(ms);
        ++r.events;
        IMC_OBS_GAUGE_SET("sched.apps",
                          static_cast<double>(core.num_apps()));

        if (exec)
            exec->reconcile(core);

        if (opts.oracle_iterations > 0 && opts.oracle_every > 0 &&
            r.events % static_cast<std::uint64_t>(opts.oracle_every) ==
                0 &&
            core.num_apps() >= 2) {
            OracleSample s = oracle_sample(core, evaluator, opts);
            IMC_OBS_GAUGE_SET("sched.quality_vs_oracle_pct",
                              s.gap() * 100.0);
            r.oracle.push_back(s);
        }
    }

    if (opts.oracle_iterations > 0 && core.num_apps() >= 2) {
        OracleSample s = oracle_sample(core, evaluator, opts);
        IMC_OBS_GAUGE_SET("sched.quality_vs_oracle_pct",
                          s.gap() * 100.0);
        r.oracle.push_back(s);
    }

    r.final_apps = core.num_apps();
    r.final_total_time = core.total_time();
    r.final_objective = core.objective();
    if (exec) {
        r.exec_sim_time = exec->now();
        r.exec_events = exec->events_executed();
        exec->drain();
    }
    return r;
}

} // namespace

ReplayResult
replay(const Trace& trace, placement::Evaluator& evaluator,
       const ReplayOptions& opts)
{
    ReplayResult r = replay_events(trace, evaluator, opts);
    // The core, its oracle anneals and an execute-mode simulation
    // have freed megabytes of small blocks, and glibc keeps those
    // pages resident for reuse. A process that replays again and
    // again (micro_sched's scales, perfbench's reps) would keep the
    // largest replay's heap resident, and a large block it allocates
    // between replays would be mapped on top of it.
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    return r;
}

} // namespace imc::sched
