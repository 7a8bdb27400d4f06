#ifndef IMC_WORKLOAD_APP_SPEC_HPP
#define IMC_WORKLOAD_APP_SPEC_HPP

/**
 * @file
 * Static description of an application workload.
 *
 * An AppSpec carries everything the simulator needs to execute the
 * workload: its parallelism template (bulk-synchronous, dynamic task
 * pool, or independent batch), the template's parameters, and the
 * shared-resource demand one *unit* of the application places on a
 * node. The interference model never reads these fields — it only sees
 * profiling runs — so specs play the role the real binaries played in
 * the paper.
 */

#include <string>
#include <vector>

#include "sim/contention.hpp"

namespace imc::workload {

/** Parallelism template of a workload. */
enum class AppKind {
    /** Bulk-synchronous iterations with collectives (SPEC MPI, NPB). */
    Bsp,
    /** Multi-stage dynamic task pool (Hadoop, Spark, and M.Gems'
     *  barrier-poor pipeline, which dynamic redistribution
     *  approximates). */
    TaskPool,
    /** Independent single-node instances (SPEC CPU2006 co-runners). */
    Batch,
    /** Open-loop latency-serving app: Zipf-keyed request arrivals,
     *  per-VM token buckets and FIFO queues, p99 as the metric. */
    Service,
};

/**
 * One one-off delay inside a BSP run (delay-wave study, DESIGN.md
 * §11): the compute segment of global process @c rank at iteration
 * @c iter runs @c delay seconds longer — the simulated analogue of
 * the injected busy-loop in the Afzal–Hager–Wellein experiments.
 * BspApp rejects a target outside the run or a delay that is not
 * positive and finite.
 */
struct BspInjection {
    /** Global process rank (node-major), in [0, ranks). */
    int rank = 0;
    /** Iteration whose compute segment the delay extends, in
     *  [0, iterations). */
    int iter = 0;
    /** Added compute-segment time, seconds. */
    double delay = 0.0;
};

/** Parameters of the bulk-synchronous template. */
struct BspParams {
    /** Number of compute iterations per process. */
    int iterations = 40;
    /** Mean work units per process per iteration. */
    double work_per_iter = 1.0;
    /** Lognormal sigma of per-process per-iteration work imbalance. */
    double imbalance_cv = 0.10;
    /** Latency of one collective operation, seconds. */
    double collective_cost = 0.02;
    /** Iterations between collectives (1 = barrier every iteration). */
    int iters_per_collective = 1;
    /**
     * Node-correlated per-iteration noise: all processes of a node
     * share a lognormal factor with sigma = base + slope * (slowdown
     * - 1). Contention does not just slow a node, it makes it
     * *erratic*, so even lower-pressure interfered nodes
     * intermittently become the critical path of a barrier-coupled
     * iteration — the behaviour behind the paper's N+1 max policy.
     */
    double node_noise_base = 0.02;
    /** Interference scaling of the node-correlated noise. */
    double node_noise_slope = 0.18;
    /**
     * Nearest-neighbor synchronization radius. 0 (the default) keeps
     * the global-barrier collective; >= 1 replaces it with a
     * sim::NeighborSync of that halo width at the same
     * iters_per_collective cadence, so a rank only waits for ranks
     * within +-halo — the point-to-point coupling under which a
     * one-off delay travels as an idle wave of halo ranks per sync
     * instead of stalling the whole application at once.
     */
    int neighbor_halo = 0;
    /** One-off delays (see BspInjection); empty by default. */
    std::vector<BspInjection> injections;
};

/** Parameters of the dynamic task-pool template. */
struct TaskPoolParams {
    /** Number of stages (shuffle barrier between consecutive stages). */
    int stages = 6;
    /** Tasks per worker per stage (the task pool holds
     *  stages * tasks_per_wave * workers tasks in total). */
    int tasks_per_wave = 3;
    /** Mean work units per task. */
    double task_work_mean = 2.2;
    /** Lognormal sigma of task size skew. */
    double task_work_cv = 0.30;
    /** Latency of one shuffle between stages, seconds. */
    double shuffle_cost = 0.30;
    /** Whether one process is an idle master (Hadoop/Spark): it does
     *  no work and its node's demand shrinks accordingly
     *  (Section 3.4). */
    bool idle_master = true;
};

/** Parameters of the independent batch template. */
struct BatchParams {
    /** Total work units per instance. */
    double total_work = 40.0;
    /** Segments the work is split into (noise granularity). */
    int segments = 40;
};

/**
 * Parameters of the open-loop latency-serving template.
 *
 * Requests arrive in a Poisson stream for the whole app, carry a
 * Zipf-distributed key that routes them to one VM (key mod VMs, so a
 * hot key means a hot VM), pass a per-VM token bucket (over-rate
 * requests are dropped, not queued), wait in that VM's FIFO queue,
 * and are served with a lognormal service time inflated by the node's
 * *current* contention slowdown. The app's finish metric is its p99
 * request latency, not a completion time.
 */
struct ServiceParams {
    /** Open-loop measurement window, seconds of sim time. */
    double duration = 30.0;
    /** Mean request arrivals per second, whole app (all VMs). */
    double request_rate = 200.0;
    /** Size of the key space requests are drawn from. */
    int num_keys = 1024;
    /** Zipf skew of key popularity (0 = uniform; ~0.99 = YCSB-ish). */
    double zipf_theta = 0.99;
    /** Mean uncontended service time of one request, seconds. */
    double service_time = 0.01;
    /** Lognormal sigma of per-request service-time variation. */
    double service_cv = 0.25;
    /** Token-bucket refill rate per VM, requests/second. */
    double bucket_rate = 120.0;
    /** Token-bucket burst capacity per VM, requests. */
    double bucket_burst = 30.0;
};

/** Full static description of one application workload. */
struct AppSpec {
    /** Full benchmark name, e.g. "126.lammps". */
    std::string name;
    /** Paper abbreviation, e.g. "M.lmps" (Table 1). */
    std::string abbrev;
    /** Suite, e.g. "SPEC MPI2007". */
    std::string suite;
    /** Parallelism template. */
    AppKind kind = AppKind::Bsp;
    /** Shared-resource demand of one unit (4 VMs) on a node. */
    sim::TenantDemand demand;
    /** Run-to-run lognormal execution noise sigma. */
    double noise_sigma = 0.02;
    /** M.Gems' Xen Dom0 blocked-I/O sensitivity (Section 4.3): extra
     *  unpredictability when co-located with fluctuating-CPU apps. */
    bool dom0_sensitive = false;
    /**
     * Mean compute slowdown whenever a node is shared with ANY busy
     * co-tenant (Dom0 CPU starvation): with spare cores, Xen boosts
     * blocked I/O; a co-tenant takes those cores away. Because the
     * bubble is a busy co-tenant too, profiling runs capture this
     * effect and the model predicts it — only the *fluctuating*
     * co-tenant variance stays unmodeled.
     */
    double dom0_cotenancy_penalty = 0.0;
    /** Hadoop/Spark-style fluctuating CPU load (triggers the Dom0
     *  effect in a dom0_sensitive co-runner). */
    bool fluctuating_cpu = false;

    BspParams bsp;
    TaskPoolParams pool;
    BatchParams batch;
    ServiceParams serve;

    /** True for workloads that span multiple nodes. */
    bool distributed() const { return kind != AppKind::Batch; }
};

} // namespace imc::workload

#endif // IMC_WORKLOAD_APP_SPEC_HPP
