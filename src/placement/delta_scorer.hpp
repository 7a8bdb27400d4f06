#ifndef IMC_PLACEMENT_DELTA_SCORER_HPP
#define IMC_PLACEMENT_DELTA_SCORER_HPP

/**
 * @file
 * Stateful incremental scoring of a placement under unit swaps and
 * moves.
 *
 * The annealer mutates a placement one swap at a time, and the
 * scheduler's polish one swap or one unit move at a time;
 * re-predicting every instance per proposal costs O(instances x
 * nodes) even though either change only perturbs the pressure lists
 * of the instances sharing the two touched nodes. A DeltaScorer owns
 * one placement plus per-node tenant lists, per-instance pressure
 * lists and predictions, and keeps them in sync across
 * apply()/move_unit()/undo(): each change re-scores at most
 * 2 x slots_per_node instances. A swap is two units crossing between
 * the same two nodes and a move is one, so both run through a single
 * relocation routine.
 *
 * Invariant (the "delta invariant", see DESIGN.md): after every
 * apply()/move_unit()/undo(), times() is bit-identical to
 * evaluator.predict(placement()) — changed entries are recomputed from
 * the same inputs through the same pure functions the full path uses,
 * and unchanged entries cannot differ because a prediction depends
 * only on its own instance's pressure list.
 *
 * Evaluators without delta support (supports_delta() == false) are
 * handled by re-running the full predict() per change, so the search
 * loops need only one code path.
 */

#include "placement/evaluator.hpp"

namespace imc::placement {

/** Incremental per-change re-scoring session bound to one placement. */
class DeltaScorer {
  public:
    /**
     * @param evaluator  predictor (outlives this scorer)
     * @param placement  valid starting placement (taken over)
     * @param force_full bypass the incremental path and re-run the
     *                   full predict() per swap even when the
     *                   evaluator supports delta (reference/bench mode)
     */
    DeltaScorer(const Evaluator& evaluator, Placement placement,
                bool force_full = false);

    /** The placement this scorer tracks. */
    const Placement& placement() const { return placement_; }

    /** Current per-instance predictions (== predict(placement())). */
    const std::vector<double>& times() const { return times_; }

    /** Current prediction of one instance. */
    double time_of(int instance) const
    {
        return times_.at(static_cast<std::size_t>(instance));
    }

    /**
     * VM-weighted total normalized time, accumulated in instance
     * order (bit-identical to Evaluator::total_time()).
     */
    double total_time() const;

    /** Whether the incremental path is active. */
    bool incremental() const { return incremental_; }

    /**
     * Apply a swap (must be swap_is_valid on placement()) and
     * re-score the affected instances.
     */
    void apply(const UnitSwap& swap);

    /**
     * Move one unit of @p instance to a different node @p to, which
     * the instance must not already occupy, and re-score the affected
     * instances. Slot capacity on @p to is the caller's contract
     * (the scorer tracks tenancy, not free slots). Undoable like
     * apply().
     */
    void move_unit(int instance, int unit, sim::NodeId to);

    /**
     * Revert the last applied swap or move, restoring placement and
     * cached predictions. One level of undo; throws if nothing to
     * undo.
     */
    void undo();

    /**
     * Instances the last apply()/move_unit() re-scored, ascending.
     * @pre incremental(), and no undo() or other mutation since
     */
    const std::vector<int>& last_affected() const;

    /**
     * Times of last_affected() before that change, index-aligned
     * with it. @pre as last_affected()
     */
    const std::vector<double>& last_old_times() const;

    /**
     * Start tracking a new instance whose units are already assigned
     * to @p nodes; the instance gets the largest index. The evaluator
     * must already track it (push the evaluator first, then the
     * scorer — rescoring maps indices through the evaluator).
     * Invalidates the undo snapshot.
     */
    void push_instance(const Instance& inst,
                       const std::vector<sim::NodeId>& nodes);

    /**
     * Stop tracking @p instance with swap-with-last renumbering
     * (mirrors Placement/Evaluator::*_swap; pop the evaluator first).
     * Invalidates the undo snapshot.
     */
    void remove_instance_swap(int instance);

    /**
     * Instances with a unit on @p node, ascending. @pre incremental()
     */
    const std::vector<int>& tenants_on(sim::NodeId node) const;

    /**
     * Combined interference pressure a *newcomer* would see on
     * @p node (combine of every current tenant's bubble score, in
     * ascending instance order). Reuses the scorer's scratch buffer.
     * @pre incremental()
     */
    double newcomer_pressure(sim::NodeId node);

    /**
     * Current pressure list of @p instance, aligned with
     * nodes_sorted(instance). @pre incremental()
     */
    const std::vector<double>& pressure_list(int instance) const;

    /** Sorted node list of @p instance. @pre incremental() */
    const std::vector<sim::NodeId>& nodes_sorted(int instance) const;

  private:
    /**
     * The one state edit behind apply() and move_unit(): unit a goes
     * from @p node_a to @p node_b and, when change.instance_b differs
     * from change.instance_a, unit b goes the other way (a move names
     * its unit as both a and b). Snapshots for undo(), then re-scores
     * the tenants of the two nodes.
     */
    void relocate(const UnitSwap& change, sim::NodeId node_a,
                  sim::NodeId node_b);

    /**
     * Combined co-tenant pressure instance @p i sees on @p node; an
     * @p i that is not a tenant there sees every tenant.
     */
    double pressure_at(int i, sim::NodeId node);

    /** Rebuild pressures_[i] and times_[i] from node_tenants_. */
    void rescore_instance(int i);

    const Evaluator& evaluator_;
    Placement placement_;
    bool incremental_;
    std::vector<double> scores_;
    /** node -> instances with a unit there, ascending instance id. */
    std::vector<std::vector<int>> node_tenants_;
    /** Per instance: its nodes, sorted (pressure list order). */
    std::vector<std::vector<sim::NodeId>> sorted_nodes_;
    /** Per instance: pressure list aligned with sorted_nodes_. */
    std::vector<std::vector<double>> pressures_;
    std::vector<double> times_;
    /** Scratch partner-score buffer (avoids per-node allocation). */
    std::vector<double> partner_buf_;

    /** Undo snapshot of the state the last apply()/move overwrote. */
    struct Snapshot {
        bool valid = false;
        /** The change to revert; a move names its unit as a and b. */
        UnitSwap change;
        sim::NodeId node_a = -1;
        sim::NodeId node_b = -1;
        std::vector<int> tenants_a;
        std::vector<int> tenants_b;
        std::vector<sim::NodeId> nodes_a;
        /** Only written by a swap. */
        std::vector<sim::NodeId> nodes_b;
        std::vector<int> affected;
        std::vector<std::vector<double>> pressures;
        std::vector<double> times;
    };
    Snapshot last_;
};

} // namespace imc::placement

#endif // IMC_PLACEMENT_DELTA_SCORER_HPP
