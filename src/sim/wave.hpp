#ifndef IMC_SIM_WAVE_HPP
#define IMC_SIM_WAVE_HPP

/**
 * @file
 * Idle-wave extraction and the Afzal–Hager–Wellein analytic model
 * (DESIGN.md §11).
 *
 * A one-off delay injected into one rank of a neighbor-coupled BSP
 * run travels outward as an *idle wave*: each sync the delayed rank's
 * neighbors inherit the delay, so the wave front moves `halo` ranks
 * per sync period. In a silent system (zero execution noise) the wave
 * propagates undamped — every rank eventually runs exactly the
 * injected delay late. Execution noise damps it: a rank only inherits
 * the part of the delay that exceeds the slack it would have spent
 * waiting anyway, so the wave amplitude decays with distance and dies
 * once it falls under the noise-induced desynchronization
 * ("Propagation and Decay of Injected One-Off Delays on Clusters",
 * PAPERS.md).
 *
 * This header provides both sides of the comparison:
 *
 *  - Extraction: subtract a baseline Timeline (same seed, no
 *    injection; bit-identical noise draws) from an injected one.
 *    The wave itself is a travelling spike of *extra idle time*:
 *    because both captures draw identical compute durations, a
 *    rank's wait differs from baseline only while the wave passes
 *    it, so the extra-wait field is exactly zero outside the wave
 *    (unlike cumulative lateness, which a noisy system keeps
 *    forever once the bulk delay has diffused through). Locate the
 *    spike per rank and fit propagation speed and e-folding decay
 *    distance.
 *  - Prediction: closed-form speed and a deterministic mean-field
 *    recursion for the decay distance, on fixed quadrature grids —
 *    no sampling, so predictions are bit-reproducible.
 *
 * Everything operates on Timelines alone; nothing here touches the
 * engine or the workload layer.
 */

#include <vector>

#include "sim/timeline.hpp"

namespace imc::sim::wave {

/** Sentinel decay distance of an undamped wave. */
double undamped();

/**
 * Per-(rank, iteration) lateness of @p injected over @p baseline:
 * release-time difference, rank-major like Timeline. Cells either
 * run did not stamp (absent ranks, post-crash iterations) are
 * negative sentinels. The grids must agree in shape.
 */
std::vector<double> lateness_field(const Timeline& injected,
                                   const Timeline& baseline);

/**
 * Per-(rank, iteration) *extra idle time* of @p injected over
 * @p baseline: the difference of (release - compute_end) between the
 * two runs, clamped at zero, rank-major like Timeline. Both runs
 * consume identical noise draws, so this is exactly zero wherever the
 * wave is not passing — the clean observable for wave amplitude.
 * Unstamped cells are negative sentinels.
 */
std::vector<double> extra_wait_field(const Timeline& injected,
                                     const Timeline& baseline);

/** Where and when the wave reached one rank. */
struct Front {
    int rank = 0;
    /** Distance |rank - source| in ranks. */
    int dist = 0;
    /** True when the extra-wait spike exceeded the threshold. */
    bool reached = false;
    /** First iteration whose extra wait crossed half of the rank's
     *  own peak. */
    int iter = 0;
    /** Baseline release time of that iteration (wave arrival). */
    double time = 0.0;
    /** Peak extra idle time at the rank: the wave's local
     *  amplitude. Zero at the source rank — the delayed rank makes
     *  everyone else wait, not itself. */
    double amplitude = 0.0;
};

/** Extracted wave geometry of one injected-vs-baseline pair. */
struct Observed {
    int source_rank = 0;
    /** Iteration the delay was injected into. */
    int source_iter = 0;
    /** One entry per usable (stamped, non-absent) rank. */
    std::vector<Front> fronts;
};

/**
 * Locate the idle-wave front at every usable rank.
 *
 * @param injected  capture with the one-off delay applied
 * @param baseline  same-seed capture without it
 * @param source_rank rank the delay was injected into
 * @param source_iter iteration it was injected into
 * @param threshold peak extra wait (seconds) a rank needs for the
 *        wave to count as having *reached* it; choose well above 0
 *        and below the injected delay (the delay-wave bench uses half
 *        the injected delay)
 *
 * The front arrives at a rank where its extra wait first crosses
 * half of the rank's own peak.
 */
Observed extract_fronts(const Timeline& injected,
                        const Timeline& baseline, int source_rank,
                        int source_iter, double threshold);

/** Propagation speed and decay fitted from an Observed wave. */
struct Fit {
    /** False when fewer than 3 reached ranks constrain the fit. */
    bool converged = false;
    /** Ranks the speed fit used (reached, distance >= 1). */
    int ranks_used = 0;
    /** Front-arrival slope: ranks travelled per second. */
    double ranks_per_sec = 0.0;
    /** Front slope in iteration space: ranks per iteration. */
    double ranks_per_iter = 0.0;
    /** Envelope amplitude at distance 1, the wave's first hop (the
     *  source rank itself shows no extra wait). In a silent system
     *  this equals the injected delay exactly. */
    double amplitude0 = 0.0;
    /** E-folding distance (ranks) of the amplitude envelope:
     *  interpolated first crossing of amplitude0 / e over the
     *  non-increasing envelope for distances >= 1; undamped() when
     *  never crossed. */
    double decay_length = 0.0;
};

Fit fit_wave(const Observed& obs);

/**
 * Pooled fit over repeated captures of the same scenario (different
 * seeds): the speed regression uses every reached front and the decay
 * envelope averages the per-capture envelopes before the e-folding
 * search, damping single-realization percolation noise. All
 * observations must share the source rank.
 */
Fit fit_waves(const std::vector<Observed>& runs);

/** Scenario parameters the analytic model reads. */
struct Model {
    /** Neighbor-sync halo width, >= 1. */
    int halo = 1;
    /** Mean compute seconds per iteration. */
    double work = 0.1;
    /** Sync release latency, seconds. */
    double sync_cost = 0.0;
    /** Iterations per sync (collective period), >= 1. */
    int period = 1;
    /** Lognormal sigma of per-iteration execution noise. */
    double noise_sigma = 0.0;
    /** Injected one-off delay, seconds. */
    double delay = 0.1;
};

/** Analytic predictions for a Model. */
struct Prediction {
    /** Wave speed in ranks per sync period (== halo, exactly). */
    double ranks_per_period = 0.0;
    /** Mean duration of one sync period, seconds. */
    double period_seconds = 0.0;
    /** Wave speed in ranks per second. */
    double ranks_per_sec = 0.0;
    /** E-folding distance of the wave amplitude, in ranks;
     *  undamped() for a silent system. */
    double decay_length = 0.0;
};

/**
 * Evaluate the analytic model.
 *
 * Speed: the front advances exactly `halo` ranks per sync period; a
 * period lasts `period * work + sync_cost` seconds in a silent
 * system, and `E[max of (2*halo+1) period sums] + sync_cost` in a
 * noisy one (the pace of a neighbor-coupled chain is set by each
 * neighborhood's slowest member).
 *
 * Decay: mean-field recursion over hops. The wave carries amplitude
 * delta across one sync hop as E[max(0, delta - G)], where
 * G = max(0, max_of_neighbors - carrier) is the slack the receiving
 * neighborhood would have waited on its slowest member anyway; the
 * e-folding hop count times `halo` gives the distance. Period sums
 * of lognormal factors are approximated Fenton–Wilkinson style and
 * all expectations are midpoint quadrature on fixed quantile grids,
 * so the result is deterministic.
 */
Prediction analytic(const Model& m);

} // namespace imc::sim::wave

#endif // IMC_SIM_WAVE_HPP
