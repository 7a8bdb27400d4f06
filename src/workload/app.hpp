#ifndef IMC_WORKLOAD_APP_HPP
#define IMC_WORKLOAD_APP_HPP

/**
 * @file
 * Launching applications onto a simulated cluster.
 *
 * launch() instantiates the driver matching the spec's template,
 * registers one tenant per occupied node (scaling the master node's
 * demand down for idle-master workloads), spawns the simulated
 * processes, and wires a completion callback. When the application
 * finishes, its tenants are removed so co-runners immediately feel the
 * reduced contention — the time-varying behaviour real consolidated
 * clusters exhibit.
 */

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"
#include "workload/app_spec.hpp"

namespace imc::workload {

/** Options controlling one application launch. */
struct LaunchOptions {
    /** Distinct nodes the application occupies. */
    std::vector<sim::NodeId> nodes;
    /** Simulated processes (VMs) per occupied node. */
    int procs_per_node = 4;
    /** Private random stream for this launch. */
    Rng rng{1};
    /** Additional noise sigma (e.g. the Dom0 effect), composed with
     *  the spec's own noise_sigma in quadrature. */
    double extra_noise_sigma = 0.0;
    /**
     * Optional per-iteration timeline capture (delay-wave study).
     * Null — the default — records nothing: drivers guard every stamp
     * behind one pointer test, the structured-capture analogue of the
     * IMC_OBS_* gating discipline, and recording never feeds back
     * into the simulation. Must outlive the run. Currently stamped by
     * the BSP driver; other templates ignore it.
     */
    sim::TimelineRecorder* timeline = nullptr;
    /** Invoked exactly once when the application completes. */
    sim::Callback on_complete;
};

/**
 * A live application instance inside a simulation.
 *
 * Owned by the caller; must outlive the simulation run (the engine
 * holds callbacks that reference it).
 */
class RunningApp {
  public:
    virtual ~RunningApp() = default;

    RunningApp(const RunningApp&) = delete;
    RunningApp& operator=(const RunningApp&) = delete;

    /** True once the application has completed. */
    bool done() const { return done_; }

    /** True once detach() has been called (and the app wasn't done). */
    bool detached() const { return detached_; }

    /**
     * Withdraw the application from the simulation mid-run: every
     * in-flight computation is abandoned (Simulation::abort_proc),
     * every still-live tenant removed, and on_complete never fires.
     * Driver callbacks already queued (barrier releases, task grants)
     * become no-ops. The scheduler uses this to execute departures and
     * evictions mid-simulation. Idempotent; a no-op once done().
     */
    void detach();

    /**
     * Completion time metric in simulated seconds.
     *
     * Distributed templates report the last process's finish time;
     * the batch template reports the mean instance finish time (a
     * throughput view, since its instances are independent).
     *
     * @pre done()
     */
    double finish_time() const;

    /**
     * Latency QoS metric in simulated seconds, or a negative value
     * for templates without one.
     *
     * The throughput templates (BSP, task-pool, batch) return -1:
     * their metric is finish_time(). ServiceApp overrides this to
     * return its p99 request latency, which the measurement paths
     * (runner, placement measure_actual) prefer over finish_time()
     * whenever it is non-negative — so "normalized time" for a
     * service app is normalized tail latency, and the whole
     * profiling/model/placement stack applies unchanged.
     *
     * @pre done()
     */
    virtual double qos_metric() const { return -1.0; }

    /** The spec this instance was launched from. */
    const AppSpec& spec() const { return spec_; }

  protected:
    RunningApp(sim::Simulation& sim, AppSpec spec, LaunchOptions opts);

    /** Combined per-segment noise sigma, fixed at launch. */
    double noise_sigma() const { return noise_sigma_; }

    /**
     * Dom0 co-tenancy factor for the tenant at @p node_idx: the
     * spec's penalty applies while the node hosts any other tenant.
     */
    double dom0_factor(std::size_t node_idx) const;

    /** Register tenants on all occupied nodes (master-aware). */
    void register_tenants();

    /** Record one process finish; finalizes the app after the last. */
    void proc_finished();

    /**
     * Abort every proc this driver owns (detach() template hook; the
     * base class doesn't know the driver's proc ids).
     */
    virtual void halt_procs() = 0;

    sim::Simulation& sim_;
    AppSpec spec_;
    LaunchOptions opts_;
    std::vector<sim::TenantId> tenants_;
    int total_procs_ = 0;
    double noise_sigma_ = 0.0;
    int finished_procs_ = 0;
    double finish_metric_sum_ = 0.0;
    bool done_ = false;
    bool detached_ = false;
    double finish_time_ = -1.0;

  private:
    /** Remove tenants, record the metric, fire on_complete. */
    void finalize();
};

/**
 * Launch an application onto a simulation.
 *
 * @param sim  target simulation
 * @param spec what to run
 * @param opts where and how to run it
 * @return the live instance (caller keeps it alive until the run ends)
 */
std::unique_ptr<RunningApp>
launch(sim::Simulation& sim, const AppSpec& spec, LaunchOptions opts);

} // namespace imc::workload

#endif // IMC_WORKLOAD_APP_HPP
