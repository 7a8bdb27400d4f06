#ifndef IMC_SIM_COORDINATION_HPP
#define IMC_SIM_COORDINATION_HPP

/**
 * @file
 * Synchronization primitives for simulated distributed applications.
 *
 * These encode the two parallelism structures the paper identifies as
 * the cause of different interference-propagation classes (Section
 * 3.2):
 *
 *  - Barrier: bulk-synchronous coupling (MPI collectives). One slow
 *    node holds every other node at the barrier, so local interference
 *    propagates to the whole application ("high propagation").
 *  - TaskPool: dynamic load balancing over stages (Hadoop/Spark task
 *    scheduling). Fast nodes absorb work from slow ones, so the
 *    aggregate throughput — not the worst node — sets the pace
 *    ("proportional propagation"), with per-stage shuffle barriers
 *    reintroducing a straggler tail.
 *  - NeighborSync: point-to-point nearest-neighbor coupling (halo
 *    exchange). A rank only waits for the ranks within its halo, so a
 *    local delay travels outward one neighborhood per sync instead of
 *    stalling everyone at once — the regime in which the
 *    Afzal–Hager–Wellein idle-wave model applies and which the
 *    delay-wave validation study (DESIGN.md §11) exercises.
 */

#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace imc::sim {

/**
 * A reusable cyclic barrier with a release latency.
 *
 * The Nth arrival releases all waiters after @c cost seconds of
 * simulated collective-communication latency. The barrier then resets
 * for the next cycle.
 */
class Barrier {
  public:
    /**
     * @param sim  owning simulation (must outlive the barrier)
     * @param size number of participants per cycle, >= 1
     * @param cost collective latency applied at release, >= 0
     */
    Barrier(Simulation& sim, int size, double cost);

    /**
     * Arrive at the barrier; @p resume runs once all participants of
     * this cycle have arrived (plus the collective latency).
     */
    void arrive(Callback resume);

    /** Number of completed cycles so far. */
    int cycles() const { return cycles_; }

  private:
    Simulation& sim_;
    int size_;
    double cost_;
    int cycles_ = 0;
    std::vector<Callback> waiting_;
};

/**
 * Nearest-neighbor synchronization over an open chain of ranks.
 *
 * Rank r's a-th arrival is released once every rank in its
 * neighborhood [r - halo, r + halo] (clamped to the chain, so edge
 * ranks wait on fewer peers) has arrived at least a times, plus the
 * point-to-point latency @c cost. Releases depend only on neighbor
 * *arrivals*, never on neighbor releases, so distant parts of the
 * chain run arbitrarily skewed — exactly the coupling that turns a
 * one-off delay into an idle wave traveling halo ranks per sync
 * (Afzal–Hager–Wellein) instead of the Barrier's instant whole-app
 * stall. Release checks scan candidate ranks in ascending order, so
 * same-time releases enter the event queue in rank order
 * deterministically.
 */
class NeighborSync {
  public:
    /**
     * @param sim  owning simulation (must outlive the sync)
     * @param size chain length, >= 1
     * @param halo neighborhood radius in ranks, >= 1
     * @param cost point-to-point latency applied at release, >= 0
     */
    NeighborSync(Simulation& sim, int size, int halo, double cost);

    /**
     * Arrive at the sync as @p rank; @p resume runs once the whole
     * clamped neighborhood has matched this arrival count (plus the
     * latency). A rank must be released before it may arrive again.
     */
    void arrive(int rank, Callback resume);

    /** Arrivals recorded for a rank so far. */
    int arrivals(int rank) const;

    /** True while the rank's latest arrival awaits its neighbors. */
    bool waiting(int rank) const;

  private:
    /** Release every waiting rank in [lo, hi] whose neighborhood has
     *  caught up, in ascending rank order. */
    void release_ready(int lo, int hi);

    Simulation& sim_;
    int size_;
    int halo_;
    double cost_;
    std::vector<int> arrived_;
    std::vector<Callback> pending_;
};

/**
 * A multi-stage dynamic task pool with shuffle barriers between
 * stages.
 *
 * Workers repeatedly call request(); each grant carries one task's
 * work units. A stage advances only when every task of the stage has
 * been completed (reported via complete_task()), after which a shuffle
 * latency elapses before the next stage's tasks become available.
 * Workers that request while the current stage is drained park until
 * the next stage opens; once the last stage drains, every parked and
 * future request is granted `finished`.
 */
class TaskPool {
  public:
    /** Outcome of a request. */
    struct Grant {
        /** True when all stages are drained: the worker should stop. */
        bool finished = false;
        /** Work units of the granted task (when !finished). */
        double work = 0.0;
    };

    using GrantFn = std::function<void(Grant)>;

    /**
     * @param sim          owning simulation
     * @param stages       per-stage task work lists; stages run in order
     * @param shuffle_cost latency between stages, >= 0
     */
    TaskPool(Simulation& sim, std::vector<std::vector<double>> stages,
             double shuffle_cost);

    /** Ask for the next task (asynchronous; cb may run immediately
     *  after a zero-delay event or much later). */
    void request(GrantFn cb);

    /** Report the previously granted task as complete. */
    void complete_task();

    /** Index of the stage being drained, or just drained while the
     *  shuffle after it runs (== stage count once the pool has
     *  finished). */
    std::size_t current_stage() const { return stage_; }

    /** True once every stage has fully drained. */
    bool finished() const { return finished_; }

  private:
    /** A grant whose zero-delay event has not fired yet. */
    struct Granted {
        GrantFn cb;
        Grant grant;
    };

    /** Hand the next task (or `finished`) to a callback, async. */
    void grant(GrantFn cb);

    /** A grant event: run the oldest undelivered grant. */
    void deliver();

    /** Advance to the next stage if the current one fully drained. */
    void maybe_advance();

    /** Open the next stage's queue and serve parked workers. */
    void open_stage();

    Simulation& sim_;
    std::vector<std::vector<double>> stages_;
    double shuffle_cost_;
    std::size_t stage_ = 0;
    /** The queue is stage stage_'s tasks from next_task_ on; empty
     *  while the shuffle after a drained stage runs. */
    std::size_t next_task_ = 0;
    std::vector<GrantFn> parked_;
    /**
     * Granted work, oldest first, from granted_head_. Grant events
     * are zero-delay, so they fire in the order they were scheduled
     * and each pops the head; the storage is reused once it drains.
     */
    std::vector<Granted> granted_;
    std::size_t granted_head_ = 0;
    int in_flight_ = 0;
    bool finished_ = false;
};

} // namespace imc::sim

#endif // IMC_SIM_COORDINATION_HPP
