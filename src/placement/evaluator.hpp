#ifndef IMC_PLACEMENT_EVALUATOR_HPP
#define IMC_PLACEMENT_EVALUATOR_HPP

/**
 * @file
 * Placement evaluation.
 *
 * The search algorithms score candidate placements through an
 * Evaluator returning each instance's predicted normalized execution
 * time. ModelEvaluator applies either of the two predictors the paper
 * compares: the full interference model (propagation matrix +
 * per-app heterogeneity policy) or the naive proportional model.
 * measure_actual() runs a placement on the simulated cluster — the
 * "real machine" ground truth the paper's figures report.
 *
 * ModelEvaluator also exposes the per-instance interface that
 * DeltaScorer drives for the search hot loops (annealer, scheduler):
 * a swap of two units only perturbs the pressure lists of instances
 * touching the two affected nodes, so only that handful of instances
 * is re-scored through predict_instance().
 */

#include <memory>
#include <vector>

#include "core/registry.hpp"
#include "placement/placement.hpp"

namespace imc::placement {

/** A swap of the node assignments of two units (the search move). */
struct UnitSwap {
    int instance_a = 0;
    int unit_a = 0;
    int instance_b = 0;
    int unit_b = 0;
};

/** Scores a placement: per-instance predicted normalized times. */
class Evaluator {
  public:
    virtual ~Evaluator() = default;

    /** Predicted normalized time of every instance. */
    virtual std::vector<double>
    predict(const Placement& placement) const = 0;

    /**
     * Aggregate objective: VM-weighted sum of normalized times
     * (units are equal-sized, so weights are proportional to units).
     * Lower is better.
     */
    double total_time(const Placement& placement) const;

    /**
     * True when this evaluator can re-score a single instance from an
     * explicit pressure list (scores() and predict_instance() work),
     * enabling the incremental delta path.
     */
    virtual bool supports_delta() const { return false; }

    /**
     * Per-instance bubble scores used to build pressure lists.
     * @pre supports_delta()
     */
    virtual const std::vector<double>& scores() const;

    /**
     * Predicted normalized time of one instance under an explicit
     * per-node pressure list (ordered like nodes_of(instance)).
     * Must be a pure function of its arguments: the delta path relies
     * on cached results being bit-identical to recomputed ones.
     * @pre supports_delta()
     */
    virtual double
    predict_instance(int instance,
                     const std::vector<double>& pressures) const;

    /**
     * True when this evaluator supports dynamic instance add/remove
     * (push_instance / pop_instance_swap), enabling the event-driven
     * scheduler to grow and shrink the tracked app list online.
     */
    virtual bool supports_dynamic() const { return false; }

    /**
     * Start tracking one more instance, appended at the largest
     * index (mirrors Placement::push_instance).
     * @pre supports_dynamic()
     */
    virtual void push_instance(const Instance& inst);

    /**
     * Stop tracking @p instance by swapping the last tracked instance
     * into its index and popping the tail (mirrors
     * Placement::remove_instance_swap).
     * @pre supports_dynamic()
     */
    virtual void pop_instance_swap(int instance);
};

/** The per-instance predictor a ModelEvaluator applies. */
enum class Predictor {
    /** Full interference model (propagation matrix + policy). */
    kModel,
    /** Naive proportional model (Sections 2.2 / 5.2). */
    kNaive,
};

/** Predictor over the registry's per-app models. */
class ModelEvaluator final : public Evaluator {
  public:
    /**
     * @param registry model source (profiles on first use)
     * @param instances instances of the placements to be evaluated
     *        (models are fetched at each instance's deployment size)
     * @param predictor which model turns pressures into times
     */
    ModelEvaluator(core::ModelRegistry& registry,
                   const std::vector<Instance>& instances,
                   Predictor predictor = Predictor::kModel);

    std::vector<double>
    predict(const Placement& placement) const override;

    bool supports_delta() const override { return true; }

    /** The per-instance bubble scores used for pressure lists. */
    const std::vector<double>& scores() const override
    {
        return scores_;
    }

    double
    predict_instance(int instance,
                     const std::vector<double>& pressures) const override;

    bool supports_dynamic() const override { return true; }
    void push_instance(const Instance& inst) override;
    void pop_instance_swap(int instance) override;

  private:
    core::ModelRegistry* registry_;
    Predictor predictor_;
    std::vector<const core::BuiltModel*> models_;
    std::vector<double> scores_;
};

/**
 * Ground truth: run the placement on the simulated cluster.
 *
 * All instances start together; each restarts until every instance
 * has completed at least once (keeping contention stationary), and the
 * first-completion time of each is normalized by its solo run at the
 * same deployment size. Averaged over cfg.reps.
 */
std::vector<double>
measure_actual(const Placement& placement,
               const workload::RunConfig& cfg);

} // namespace imc::placement

#endif // IMC_PLACEMENT_EVALUATOR_HPP
