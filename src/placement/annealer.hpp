#ifndef IMC_PLACEMENT_ANNEALER_HPP
#define IMC_PLACEMENT_ANNEALER_HPP

/**
 * @file
 * Interference-aware placement search by simulated annealing
 * (Sections 5.1-5.3).
 *
 * Starting from a random valid placement, the search repeatedly picks
 * two units of different workloads and proposes swapping their nodes.
 * A proposal is accepted if it improves the objective (or, early on,
 * with the Metropolis probability), subject to the QoS rule: once the
 * QoS constraint is met it must never be given up, and while it is
 * violated any move reducing the violation is taken. Two goals mirror
 * the paper: minimizing the VM-weighted total normalized time
 * (Best / QoS-aware) and maximizing it (Worst, used as the Fig. 11
 * comparison baseline).
 */

#include <optional>
#include <vector>

#include "placement/evaluator.hpp"

namespace imc::placement {

/** Search direction. */
enum class Goal {
    /** Find the best placement (minimize total normalized time). */
    MinimizeTotalTime,
    /** Find the worst placement (comparison baseline). */
    MaximizeTotalTime,
};

/** QoS constraint: one instance's normalized time must stay bounded. */
struct QosConstraint {
    /** Index of the mission-critical instance. */
    int instance = 0;
    /**
     * Maximum allowed normalized time; the paper's "80% of solo
     * performance" guarantee corresponds to 1/0.8 = 1.25.
     */
    double max_norm_time = 1.25;
};

/** Annealing knobs. */
struct AnnealOptions {
    /** Proposed swaps (per chain). */
    int iterations = 4000;
    /** RNG seed of the search. */
    std::uint64_t seed = 1;
    /**
     * Independent annealing chains, one thread each through
     * parallel_for, all starting from the initial placement with
     * independent RNG streams; the best chain's result
     * (violation-first) is returned. Chain 0's stream equals the
     * chains=1 stream, so adding chains can only improve the
     * returned objective. 0 = one chain per hardware thread
     * (resolve_threads).
     */
    int chains = 1;
    /**
     * Score proposals through the incremental delta path when the
     * evaluator supports it (bit-identical results, one swap costs
     * O(slots) re-predictions instead of O(instances)). Disable to
     * force a full re-predict per proposal — the reference path
     * bench/micro_annealer compares against.
     */
    bool use_delta = true;
    /**
     * Per-instance SLO targets (maximum acceptable normalized time;
     * <= 0 = best-effort). When non-empty it must be index-aligned
     * with the placement; the unit-weighted debt (placement::slo_debt)
     * joins the QoS violation in the annealed score, penalized and
     * selected violation-first like it — QoS placement
     * minimizing p99 violations for service apps. Empty (the default)
     * leaves every search byte-identical to the pre-SLO behaviour.
     */
    std::vector<double> slo_targets;
};

/** Search outcome. */
struct AnnealResult {
    Placement placement;
    /** Objective (VM-weighted total normalized time) of `placement`. */
    double total_time = 0.0;
    /** Whether the QoS constraint holds in `placement` (true when no
     *  constraint was given). */
    bool qos_met = true;
    /** Accepted moves during the (winning chain's) search. */
    int accepted_moves = 0;
    /** Chains actually run. */
    int chains_run = 1;
    /** Index of the chain that produced `placement`. */
    int best_chain = 0;
};

/**
 * Run the simulated-annealing placement search.
 *
 * @param initial   a valid starting placement
 * @param evaluator predictor scoring candidate placements
 * @param goal      optimize direction
 * @param qos       optional QoS constraint (Section 5.2)
 * @param opts      annealing knobs
 */
AnnealResult anneal(Placement initial, const Evaluator& evaluator,
                    Goal goal, std::optional<QosConstraint> qos,
                    const AnnealOptions& opts);

} // namespace imc::placement

#endif // IMC_PLACEMENT_ANNEALER_HPP
