#include "placement/slo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace imc::placement {

namespace {

/** Unit roundoff of binary64, round to nearest. */
constexpr double kUnitRoundoff = 0x1p-53;

/**
 * The filter's summation constant for @p n terms: 2(n+2)u, at least
 * twice the gamma_(n+1) = (n+1)u / (1 - (n+1)u) that the derivation
 * at filter_change() needs.
 */
double
gamma_for(std::size_t n)
{
    return 2.0 * (static_cast<double>(n) + 2.0) * kUnitRoundoff;
}

bool
same_bits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

double
slo_debt(const std::vector<double>& times,
         const std::vector<Instance>& instances,
         const std::vector<double>& slo)
{
    require(times.size() == instances.size() &&
                slo.size() == times.size(),
            "slo_debt: times/instances/slo must be index-aligned");
    // Adding a zero term leaves the sum's bits alone (it starts at +0
    // and every other term is positive), so this equals skipping it.
    double debt = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i)
        debt += debt_term(times[i], instances[i].units, slo[i]);
    return debt;
}

double
tail_objective(const std::vector<double>& times,
               const std::vector<Instance>& instances,
               const std::vector<double>& slo, double penalty)
{
    require(times.size() == instances.size(),
            "tail_objective: times/instances must be index-aligned");
    double total = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i)
        total += time_term(times[i], instances[i].units);
    return total + penalty * slo_debt(times, instances, slo);
}

int
slo_violations(const std::vector<double>& times,
               const std::vector<double>& slo)
{
    require(slo.size() == times.size(),
            "slo_violations: times/slo must be index-aligned");
    int count = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        if (slo[i] > 0.0 && times[i] > slo[i])
            ++count;
    }
    return count;
}

double
objective_magnitude(const std::vector<double>& times,
                    const std::vector<int>& units,
                    const std::vector<double>& slo, double penalty)
{
    require(times.size() == units.size() && slo.size() == times.size(),
            "objective_magnitude: times/units/slo must be "
            "index-aligned");
    const double abs_penalty = std::fabs(penalty);
    double sum = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i) {
        sum += std::fabs(time_term(times[i], units[i])) +
               abs_penalty *
                   std::fabs(debt_term(times[i], units[i], slo[i]));
    }
    // Round up past this sum's own relative error (at most
    // gamma_(n+1): n - 1 additions after each term's two roundings)
    // and the multiply's.
    return sum * (1.0 + 2.0 * gamma_for(times.size()));
}

// Why the filter's verdicts equal the full comparison.
//
// Write x_i = time_term(t_i, u_i) and y_i = debt_term(t_i, u_i, s_i)
// for the computed terms, and u = 2^-53. tail_objective() returns
// O^ = fl(X^ + fl(p * Y^)), where X^ and Y^ are the left-to-right
// sums of the n terms. The recursive-summation bound (Higham,
// Accuracy and Stability of Numerical Algorithms, §4.2) gives
//     |X^ - sum x| <= gamma_(n-1) * sum |x|,  and the same for Y^,
// and the penalty multiply and the final add round twice more, so
//     |O^ - O| <= gamma_(n+1) * S,   O = sum x + p * sum y,
//     S = sum |x| + |p| * sum |y|.
// A change rewrites the terms of the instances A only, so the exact
// difference of the exact objectives is
//     D = sum_A (x' - x) + p * sum_A (y' - y),
// and the two computed objectives differ by D plus at most
// gamma_(n+1) * (S + S'). The filter evaluates D in floating point
// as Delta, itself within
//     eps = 2(|A|+3)u * sum_A (|x| + |x'| + |p| (|y| + |y'|))
// of D (at most |A|+2 roundings reach any term; the constant is over
// twice that). With gamma = 2(n+2)u and
//     B = gamma * (S + S') + eps,
// Delta < -B proves O^' < O^, and Delta > B proves O^' > O^: the sign
// of Delta is then the sign the full comparison sees. S is bounded
// from above by objective_magnitude(), S' by S + sum_A (|x'| +
// |p| |y'|); both carry a few more roundings of relative size
// O(n u), which gamma's factor-2 headroom over gamma_(n+1) absorbs.
// B also adds the smallest normal double, which covers the absolute
// error of a penalty multiply that underflows. Everything else, NaN
// included, is kUnsure. At 2.5k nodes B is about 1e-12 of the
// objective, so nearly every undecided change has Delta == 0
// exactly: two equal-size instances trading their times.
ChangeVerdict
filter_change(const std::vector<int>& changed,
              const std::vector<double>& old_times,
              const std::vector<double>& times,
              const std::vector<int>& units,
              const std::vector<double>& slo, double penalty,
              double magnitude)
{
    require(old_times.size() == changed.size() &&
                times.size() == units.size() &&
                slo.size() == times.size(),
            "filter_change: inputs must be index-aligned");
    const double abs_penalty = std::fabs(penalty);
    bool unchanged = true;
    double delta_time = 0.0; // sum_A (x' - x)
    double delta_debt = 0.0; // sum_A (y' - y)
    double grown = 0.0;      // sum_A (|x'| + |p| |y'|)
    double touched = 0.0;    // sum_A (|x| + |x'| + |p| (|y| + |y'|))
    for (std::size_t k = 0; k < changed.size(); ++k) {
        const auto i = static_cast<std::size_t>(changed[k]);
        const int u = units.at(i);
        const double x0 = time_term(old_times[k], u);
        const double x1 = time_term(times[i], u);
        const double y0 = debt_term(old_times[k], u, slo[i]);
        const double y1 = debt_term(times[i], u, slo[i]);
        unchanged = unchanged && same_bits(x0, x1) && same_bits(y0, y1);
        delta_time += x1 - x0;
        delta_debt += y1 - y0;
        grown += std::fabs(x1) + abs_penalty * std::fabs(y1);
        touched += std::fabs(x0) + std::fabs(x1) +
                   abs_penalty * (std::fabs(y0) + std::fabs(y1));
    }

    ChangeVerdict v;
    v.magnitude_after = magnitude + grown;
    if (unchanged) {
        // Identical term sequences give identical sums: not lower.
        v.change = Change::kNotLower;
        return v;
    }
    const double delta = delta_time + penalty * delta_debt;
    const double bound =
        gamma_for(times.size()) * (magnitude + v.magnitude_after) +
        gamma_for(changed.size() + 1) * touched +
        std::numeric_limits<double>::min();
    if (delta < -bound)
        v.change = Change::kLower;
    else if (delta > bound)
        v.change = Change::kNotLower;
    else
        v.change = Change::kUnsure;
    return v;
}

bool
full_change_lower(const std::vector<int>& changed,
                  const std::vector<double>& old_times,
                  const std::vector<double>& times,
                  const std::vector<int>& units,
                  const std::vector<double>& slo, double penalty)
{
    require(old_times.size() == changed.size() &&
                times.size() == units.size() &&
                slo.size() == times.size(),
            "full_change_lower: inputs must be index-aligned");
    // tail_objective() sums the time terms and the debt terms left to
    // right, each from +0. Before the first changed instance both
    // states have the same terms, so one prefix serves both; from
    // there each state's two sums take its own terms in index order,
    // which is the same sequence of additions tail_objective() makes.
    const std::size_t first =
        changed.empty()
            ? times.size()
            : std::min(static_cast<std::size_t>(changed[0]), times.size());
    double total = 0.0;
    double debt = 0.0;
    for (std::size_t i = 0; i < first; ++i) {
        total += time_term(times[i], units[i]);
        debt += debt_term(times[i], units[i], slo[i]);
    }
    double total_before = total;
    double debt_before = debt;
    std::size_t k = 0;
    for (std::size_t i = first; i < times.size(); ++i) {
        double before = times[i];
        if (k < changed.size() &&
            static_cast<std::size_t>(changed[k]) == i)
            before = old_times[k++];
        total += time_term(times[i], units[i]);
        debt += debt_term(times[i], units[i], slo[i]);
        total_before += time_term(before, units[i]);
        debt_before += debt_term(before, units[i], slo[i]);
    }
    require(k == changed.size(),
            "full_change_lower: changed must be ascending and in range");
    return total + penalty * debt <
           total_before + penalty * debt_before;
}

} // namespace imc::placement
