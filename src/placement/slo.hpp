#ifndef IMC_PLACEMENT_SLO_HPP
#define IMC_PLACEMENT_SLO_HPP

/**
 * @file
 * The tail-latency objective term shared by every placement consumer.
 *
 * An SLO target is a maximum acceptable *normalized* time per
 * instance. For the throughput templates that is normalized
 * completion time (the paper's objective); for ServiceApp instances
 * the measurement stack reports normalized p99 request latency
 * through the same channel, so a target of e.g. 1.25 reads "p99 may
 * stretch at most 25% beyond its uncontended value" — a real tail
 * QoS bound, not a makespan bound.
 *
 * slo_debt() is THE definition of the violation term: the scheduler
 * core's objective, the annealer's QoS-placement score, and the
 * micro_serve violation counter all call it, so admission, eviction
 * veto, crash repair, and offline search score against the identical
 * arithmetic (same accumulation order — determinism contracts depend
 * on it).
 *
 * filter_change() decides, from the changed instances alone, whether
 * a change lowers tail_objective() exactly as comparing the two full
 * sums would; the scheduler's polish asks it instead of re-summing
 * (DESIGN.md §8).
 */

#include <vector>

#include "placement/placement.hpp"

namespace imc::placement {

/**
 * One instance's term of the weighted total time: @p time x @p units,
 * the expression DeltaScorer::total_time() sums.
 */
inline double
time_term(double time, int units)
{
    return time * units;
}

/**
 * One instance's term of slo_debt(): units x (time - target) when the
 * target is set (> 0) and exceeded, else 0.
 */
inline double
debt_term(double time, int units, double target)
{
    return target > 0.0 && time > target ? units * (time - target)
                                         : 0.0;
}

/**
 * Unit-weighted sum of SLO violations, accumulated in instance order.
 *
 * @param slo per-instance maximum acceptable normalized time;
 *            entries <= 0 are best-effort (never in debt)
 * @pre times, instances, and slo are index-aligned and equal-sized
 */
double slo_debt(const std::vector<double>& times,
                const std::vector<Instance>& instances,
                const std::vector<double>& slo);

/**
 * The tail-aware placement objective: VM-weighted total normalized
 * time plus @p penalty per unit of weighted SLO violation, both sums
 * in instance order.
 */
double tail_objective(const std::vector<double>& times,
                      const std::vector<Instance>& instances,
                      const std::vector<double>& slo, double penalty);

/** Number of instances whose SLO target is violated (slo_i > 0 and
 *  time_i > slo_i); the headline micro_serve metric. */
int slo_violations(const std::vector<double>& times,
                   const std::vector<double>& slo);

/**
 * An upper bound on sum |time_term| + |penalty| x sum |debt_term|
 * over every instance: the magnitude filter_change() scales its
 * rounding bound by. One O(instances) pass.
 *
 * This and the two functions below read each instance's unit count
 * from the dense @p units (units[i] == instances[i].units), so their
 * passes stay in two arrays of numbers.
 */
double objective_magnitude(const std::vector<double>& times,
                           const std::vector<int>& units,
                           const std::vector<double>& slo,
                           double penalty);

/** What filter_change() concluded about a change. */
enum class Change {
    /** tail_objective() after < before, certainly. */
    kLower,
    /** Not after < before, certainly. */
    kNotLower,
    /** Within the sums' rounding error: compare the full sums. */
    kUnsure,
};

/** filter_change()'s verdict plus the widened magnitude bound. */
struct ChangeVerdict {
    Change change = Change::kUnsure;
    /** Bound on the magnitude after the change (keep it on accept). */
    double magnitude_after = 0.0;
};

/**
 * Whether replacing the times of instances @p changed (ascending,
 * distinct) by @p times lowers tail_objective(), decided from the
 * changed instances alone.
 *
 * @param old_times the changed instances' times before the change,
 *                  aligned with @p changed
 * @param times     every instance's time after the change
 * @param magnitude an objective_magnitude() bound for the state
 *                  before the change
 * @return kLower / kNotLower exactly when comparing the two full
 *         tail_objective() values with < would say so; kUnsure when
 *         the difference lies within their rounding error
 */
ChangeVerdict filter_change(const std::vector<int>& changed,
                            const std::vector<double>& old_times,
                            const std::vector<double>& times,
                            const std::vector<int>& units,
                            const std::vector<double>& slo,
                            double penalty, double magnitude);

/**
 * The full-sum comparison filter_change() stands in for:
 * tail_objective(times) < tail_objective(times with @p changed put
 * back to @p old_times), bit for bit. One pass and no copy: the
 * prefix before the first changed instance is summed once, then the
 * old and new total and debt sums run side by side.
 *
 * @throws ConfigError when @p changed is not ascending and in range
 */
bool full_change_lower(const std::vector<int>& changed,
                       const std::vector<double>& old_times,
                       const std::vector<double>& times,
                       const std::vector<int>& units,
                       const std::vector<double>& slo, double penalty);

} // namespace imc::placement

#endif // IMC_PLACEMENT_SLO_HPP
