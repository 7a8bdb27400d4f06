#ifndef IMC_SIM_ENGINE_HPP
#define IMC_SIM_ENGINE_HPP

/**
 * @file
 * The discrete-event cluster simulation engine.
 *
 * A Simulation hosts a cluster of nodes. Workloads register *tenants*
 * (one per application per node, carrying that application's
 * shared-resource demand) and *procs* (simulated VMs executing work).
 * Whenever a node's tenant set changes, the contention model is
 * re-solved and every in-flight computation on that node is settled at
 * its old rate and rescheduled at its new rate, so co-location changes
 * take effect mid-computation — exactly the time-varying interference
 * a consolidated cluster exhibits.
 *
 * Work is measured in *work units*: one unit takes one simulated
 * second at slowdown 1.0.
 *
 * Scale architecture (see DESIGN.md §7): the engine's hot path is
 * node-local, and its state is grouped by access. Tenant state lives
 * in struct-of-arrays, so a re-solve streams over contiguous memory.
 * Each proc is one record, so a settle, re-rate or completion touches
 * one record, and its completion is a queue event tagged with its
 * ProcId that carries the caller's done callback. Per-node tenant and
 * proc index lists make each re-solve O(node population) instead of
 * O(cluster); and the indexed event queue moves a re-rated completion
 * in place in O(log n). tests/test_scale.cpp pins per-event traces of
 * paper-shaped runs to recorded digests and property-checks the
 * incremental re-solve against a full one.
 */

#include <cstdint>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/contention.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace imc::sim {

/** Cheap counters the engine maintains for diagnostics and tests. */
struct SimStats {
    /** Contention re-solves (tenant arrivals/departures/changes). */
    std::uint64_t contention_solves = 0;
    /** In-flight computations settled+rescheduled by those solves. */
    std::uint64_t proc_reschedules = 0;
    /** compute() calls issued. */
    std::uint64_t computes = 0;
    /** crash_node() events applied. */
    std::uint64_t node_crashes = 0;
};

/**
 * A discrete-event simulation of one cluster.
 *
 * Not copyable; all workload state references into it.
 */
class Simulation {
  public:
    /** Build an idle cluster from a spec. */
    explicit Simulation(ClusterSpec spec);

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** The cluster configuration this simulation runs. */
    const ClusterSpec& spec() const { return spec_; }

    /** Current simulation time in seconds. */
    double now() const { return queue_.now(); }

    /**
     * Schedule a callback after a relative delay.
     *
     * @param dt delay in seconds, >= 0
     */
    EventId schedule(double dt, Callback cb);

    // --- Tenants -------------------------------------------------------

    /**
     * Register a tenant on a node and re-solve that node's contention.
     *
     * @param node   node index in [0, spec().num_nodes)
     * @param demand the tenant's shared-resource demand
     */
    TenantId add_tenant(NodeId node, const TenantDemand& demand);

    /** Remove a tenant; its procs must already be idle or done. */
    void remove_tenant(TenantId t);

    /** Replace a tenant's demand in place (phase change). */
    void set_demand(TenantId t, const TenantDemand& demand);

    /** Current execution-time multiplier of a tenant. */
    double tenant_slowdown(TenantId t) const;

    /** The demand a tenant currently exerts (live or not). */
    const TenantDemand& tenant_demand(TenantId t) const;

    /** Node a tenant lives on. */
    NodeId node_of(TenantId t) const;

    /** Number of live tenants on a node. */
    int tenants_on(NodeId node) const;

    // --- Procs ---------------------------------------------------------

    /**
     * Add a simulated process bound to a tenant. Its compute rate
     * follows the tenant's slowdown.
     */
    ProcId add_proc(TenantId t);

    /**
     * Run @p work units of computation on a proc, then invoke @p done.
     *
     * The proc must be idle. Zero work completes after a zero-delay
     * event (still asynchronous, preserving event ordering).
     */
    void compute(ProcId p, double work, Callback done);

    /** True while the proc has an unfinished compute in flight. */
    bool proc_busy(ProcId p) const;

    /**
     * Abandon a proc's in-flight computation, if any: the work is
     * settled, the completion event cancelled, and the done callback
     * dropped — the per-proc half of crash_node, exposed so a
     * scheduler can detach a running app mid-simulation without
     * killing its nodes. Idle procs are a no-op.
     */
    void abort_proc(ProcId p);

    /** True while a tenant is registered and its node is up. */
    bool tenant_live(TenantId t) const;

    /**
     * Re-solve every node from scratch (full re-solve). A debug/test
     * hook: after any sequence of incremental re-solves this must not
     * change any tenant's slowdown — the invariant
     * tests/test_scale.cpp locks in.
     */
    void refresh_all_nodes();

    // --- Faults --------------------------------------------------------

    /**
     * Crash a node mid-run: every busy proc bound to a tenant on the
     * node is settled and its completion event cancelled (its done
     * callback is dropped — the in-flight work is lost), every tenant
     * on the node is removed, and the node refuses new tenants from
     * then on. Survivors on other nodes are untouched; re-placing the
     * lost units is the scheduler's job (sched::SchedulerCore::crash).
     * Crashing a node twice is a no-op; this may be called from inside
     * a scheduled event (a mid-run crash) or between runs.
     */
    void crash_node(NodeId node);

    /** True once @p node has crashed. */
    bool node_crashed(NodeId node) const;

    // --- Execution -----------------------------------------------------

    /**
     * Run until no events remain.
     *
     * @param max_events safety valve; LogicBug beyond it (runaway)
     */
    void run(std::uint64_t max_events = 50'000'000);

    /** Execute a single event. @return false when the queue is empty */
    bool step();

    /** Total events executed so far. */
    std::uint64_t events_executed() const { return queue_.executed(); }

    /** Engine activity counters. */
    const SimStats& stats() const { return stats_; }

    /**
     * Approximate heap bytes of engine state (queue, tenant/proc
     * arrays, node indices, solver scratch). Reported per node by
     * bench/micro_scale as the bytes/node scale metric.
     */
    std::size_t approx_bytes() const;

  private:
    /**
     * One proc's state. A settle, re-rate or completion reads and
     * writes this record and nothing else; the proc's done callback
     * rides in its pending completion event.
     */
    struct Proc {
        double remaining = 0.0;   // work units left
        double rate = 1.0;        // work units per second
        double last_update = 0.0; // last settle time
        EventId event = 0;        // pending completion event
        TenantId tenant = 0;
        bool busy = false;
    };

    /** Re-solve a node's contention and re-rate its busy procs. */
    void resolve_node(NodeId node);

    /** Settle a busy proc's remaining work up to now(). */
    void settle(Proc& p);

    /** Settle + re-rate + reschedule one busy proc of a node. */
    void reschedule_proc(Proc& p, double slowdown);

    /** Seconds until a busy proc's remaining work completes. */
    static double completion_delay(const Proc& p);

    /** Finish a proc's compute; step() then runs its done callback. */
    void complete(ProcId pid);

    ClusterSpec spec_;
    EventQueue queue_;
    SimStats stats_;
    ContentionSolver solver_; // reusable SoA scratch

    // Per-node state.
    std::vector<char> crashed_; // per-node crash flag
    std::vector<std::vector<TenantId>> node_tenants_;
    /**
     * Procs whose tenant lives on the node, in ascending ProcId order
     * (procs never change node: a tenant's node is fixed for life).
     * Makes a re-solve touch only the node's procs — the O(cluster) →
     * O(node) change that unlocks 10k-node runs.
     */
    std::vector<std::vector<ProcId>> node_procs_;

    // Tenant state, struct-of-arrays (indexed by TenantId).
    std::vector<NodeId> tenant_node_;
    std::vector<char> tenant_live_;
    std::vector<double> tenant_slowdown_;
    std::vector<TenantDemand> tenant_demand_;

    std::vector<Proc> procs_; // indexed by ProcId
};

} // namespace imc::sim

#endif // IMC_SIM_ENGINE_HPP
