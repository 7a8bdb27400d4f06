#include "placement/annealer.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "placement/delta_scorer.hpp"
#include "placement/slo.hpp"

namespace imc::placement {

namespace {

/** Objective + constraint state of one placement. */
struct Score {
    double total = 0.0;
    double violation = 0.0; // 0 when the QoS constraint holds

    bool better_than(const Score& other, double direction) const
    {
        if (violation != other.violation)
            return violation < other.violation;
        return direction * (total - other.total) < 0.0;
    }
};

Score
score_of(const DeltaScorer& scorer,
         const std::optional<QosConstraint>& qos,
         const std::vector<double>& slo_targets)
{
    Score s;
    s.total = scorer.total_time();
    if (qos) {
        const double t = scorer.time_of(qos->instance);
        s.violation = std::max(0.0, t - qos->max_norm_time);
    }
    if (!slo_targets.empty()) {
        s.violation += slo_debt(scorer.times(),
                                scorer.placement().instances(),
                                slo_targets);
    }
    return s;
}

/** (instance, unit) address of one unit. */
struct UnitRef {
    int instance = 0;
    int unit = 0;
};

std::vector<UnitRef>
all_units(const Placement& placement)
{
    std::vector<UnitRef> units;
    for (int i = 0; i < placement.num_instances(); ++i) {
        const int n =
            placement.instances()[static_cast<std::size_t>(i)].units;
        for (int u = 0; u < n; ++u)
            units.push_back(UnitRef{i, u});
    }
    return units;
}

/** One chain's outcome (the violation is needed for selection). */
struct ChainResult {
    Placement placement;
    Score score;
    int accepted = 0;
};

/** Initial Metropolis temperature (objective units). */
constexpr double kStartTemperature = 1.0;
/** Final temperature. */
constexpr double kEndTemperature = 0.01;
/**
 * Weight of the QoS violation in the annealed objective. The
 * heterogeneity conversion makes predictions non-monotone in single
 * swaps, so a hard never-worsen-violation rule can trap the search;
 * instead the violation is penalized heavily and annealed with the
 * rest (the returned best is still selected violation-first).
 */
constexpr double kQosPenalty = 100.0;

ChainResult
anneal_chain(Placement initial, const Evaluator& evaluator, Goal goal,
             const std::optional<QosConstraint>& qos,
             const AnnealOptions& opts, Rng rng)
{
    IMC_OBS_SPAN(chain_span, "anneal.chain");
    const double direction =
        goal == Goal::MinimizeTotalTime ? 1.0 : -1.0;

    DeltaScorer scorer(evaluator, std::move(initial), !opts.use_delta);
    Score current_score = score_of(scorer, qos, opts.slo_targets);
    Placement best = scorer.placement();
    Score best_score = current_score;

    const auto units = all_units(scorer.placement());
    const double cool =
        std::pow(kEndTemperature / kStartTemperature,
                 1.0 / static_cast<double>(opts.iterations));
    double temperature = kStartTemperature;
    int accepted = 0;

    for (int iter = 0; iter < opts.iterations;
         ++iter, temperature *= cool) {
        // Propose a valid swap of two units of different workloads.
        UnitRef a;
        UnitRef b;
        bool found = false;
        for (int attempt = 0; attempt < 100 && !found; ++attempt) {
            a = units[rng.uniform_index(units.size())];
            b = units[rng.uniform_index(units.size())];
            found = scorer.placement().swap_is_valid(
                a.instance, a.unit, b.instance, b.unit);
        }
        if (!found)
            continue; // degenerate configuration; keep cooling

        scorer.apply(UnitSwap{a.instance, a.unit, b.instance, b.unit});
        const Score cand = score_of(scorer, qos, opts.slo_targets);

        // Scalarized objective: heavily penalized violation annealed
        // together with the (signed) total, so the search can cross
        // the non-monotone ridges the heterogeneity conversion
        // creates without abandoning the QoS goal.
        const double delta =
            direction * (cand.total - current_score.total) +
            kQosPenalty * (cand.violation - current_score.violation);
        const bool accept =
            delta <= 0.0 ||
            rng.uniform() < std::exp(-delta / temperature);

        if (accept) {
            current_score = cand;
            ++accepted;
            if (cand.better_than(best_score, direction)) {
                best = scorer.placement();
                best_score = cand;
                // Best-energy trajectory: one counter sample per
                // improvement, viewable as a descending staircase in
                // the trace timeline.
                IMC_OBS_TRACE_COUNTER("anneal.best_total", cand.total);
            }
        } else {
            scorer.undo();
        }
    }

    if (IMC_OBS_ENABLED()) {
        IMC_OBS_COUNT("anneal.proposals",
                   static_cast<std::uint64_t>(opts.iterations));
        IMC_OBS_COUNT("anneal.accepted",
                   static_cast<std::uint64_t>(accepted));
    }
    return ChainResult{std::move(best), best_score, accepted};
}

} // namespace

AnnealResult
anneal(Placement initial, const Evaluator& evaluator, Goal goal,
       std::optional<QosConstraint> qos, const AnnealOptions& opts)
{
    require(initial.valid(), "anneal: initial placement invalid");
    require(opts.iterations >= 1, "anneal: iterations must be >= 1");
    require(opts.chains >= 0, "anneal: chains must be >= 0");
    if (qos) {
        require(qos->instance >= 0 &&
                    qos->instance < initial.num_instances(),
                "anneal: QoS instance out of range");
    }
    require(opts.slo_targets.empty() ||
                opts.slo_targets.size() ==
                    static_cast<std::size_t>(initial.num_instances()),
            "anneal: slo_targets must be empty or index-aligned with "
            "the placement");

    const int chains = resolve_threads(opts.chains);
    IMC_OBS_COUNT("anneal.chains", static_cast<std::uint64_t>(chains));

    const double direction =
        goal == Goal::MinimizeTotalTime ? 1.0 : -1.0;

    // Stream 0 equals Rng(opts.seed), the chains=1 stream, so adding
    // chains can never make the returned result worse. A single chain
    // takes the initial placement over instead of copying it.
    const auto streams = Rng(opts.seed).parallel_streams(chains);
    std::vector<std::optional<ChainResult>> results(
        static_cast<std::size_t>(chains));
    parallel_for(results.size(), chains, [&](std::size_t c) {
        results[c] = anneal_chain(
            chains == 1 ? std::move(initial) : initial, evaluator, goal,
            qos, opts, streams[c]);
    });

    std::size_t winner = 0;
    for (std::size_t c = 1; c < results.size(); ++c) {
        if (results[c]->score.better_than(results[winner]->score,
                                          direction))
            winner = c;
    }
    auto& best = *results[winner];
    return AnnealResult{std::move(best.placement), best.score.total,
                        best.score.violation <= 0.0, best.accepted,
                        chains, static_cast<int>(winner)};
}

} // namespace imc::placement
