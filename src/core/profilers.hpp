#ifndef IMC_CORE_PROFILERS_HPP
#define IMC_CORE_PROFILERS_HPP

/**
 * @file
 * Sensitivity-matrix profiling algorithms (Section 4.1).
 *
 * Building the full n x m propagation matrix by brute force needs one
 * cluster run per setting. The paper's two binary-search algorithms
 * cut that cost:
 *
 *  - binary-brute (Algorithm 1): per pressure level, measure the
 *    endpoints and recursively bisect a node-count interval only while
 *    the normalized times at its ends differ by more than a threshold;
 *    unmeasured settings are linearly interpolated.
 *  - binary-optimized (Algorithm 2): profile only the top-pressure row
 *    with the binary search plus the max-node column, then infer every
 *    other entry by proportional scaling
 *    T[i][j] = 1 + (T[i][m]-1)*(T[n-1][j]-1)/(T[n-1][m]-1),
 *    exploiting that curve *shapes* barely change across pressures.
 *
 *  Random-fraction baselines (random-30%/random-50%) measure a random
 *  subset (always including the all-nodes column) and interpolate.
 *
 * Profiling cost is the fraction of the n*m settings actually
 * measured (the no-interference column is free).
 */

#include <vector>

#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/sensitivity_matrix.hpp"

namespace imc::core {

/** Outcome of one profiling algorithm. */
struct ProfileResult {
    /** The completed (hole-free) sensitivity matrix. */
    SensitivityMatrix matrix;
    /** Distinct settings measured. */
    int measured = 0;
    /** Total billable settings (n * m). */
    int total_settings = 0;
    /**
     * Cells whose cluster run permanently failed (MeasurementFailed
     * after the RunService exhausted its retries). The profiler
     * degrades instead of aborting: a failed cell is filled by the
     * interpolation path (clamped edge extension + linear fill), so
     * the matrix is still complete — just coarser where the cluster
     * misbehaved. Failed cells are not billed in `measured`. Always 0
     * without an armed fault schedule.
     */
    int degraded_cells = 0;

    /** Fraction of settings measured, in [0, 1]. */
    double cost() const
    {
        return total_settings > 0
                   ? static_cast<double>(measured) / total_settings
                   : 0.0;
    }
};

/** The default profiling grid: a sub-unit row (capturing the
 *  any-co-tenant regime) plus the paper's integer levels 1..8. */
const std::vector<double>& default_pressure_grid();

/** Shared knobs of the profiling algorithms. */
struct ProfileOptions {
    /**
     * Bubble pressures of the profiled rows, strictly increasing.
     * Levels passed to MeasureFn are 1-based indices into this grid.
     */
    std::vector<double> grid = default_pressure_grid();
    /** Hosts m (columns 1..m). */
    int hosts = 8;
    /**
     * Binary search stops refining an interval whose endpoint
     * normalized times differ by less than this.
     */
    double epsilon = 0.05;
    /**
     * Concurrent per-pressure-row tasks for the row-independent
     * algorithms (exhaustive, binary-brute). Rows never share
     * settings, so the result — matrix AND measured count — is
     * bit-identical for any value, and so is the error a failing
     * row raises (parallel_for rethrows the lowest failing row's);
     * > 1 requires the measure to be safe under concurrent calls
     * (CountingMeasure is).
     */
    int row_tasks = 1;

    /** Number of rows. */
    int pressure_levels() const
    {
        return static_cast<int>(grid.size());
    }
};

/** Measure every setting (ground truth; cost 100%). */
ProfileResult profile_exhaustive(CountingMeasure& measure,
                                 const ProfileOptions& opts);

/** The paper's Algorithm 1. */
ProfileResult profile_binary_brute(CountingMeasure& measure,
                                   const ProfileOptions& opts);

/** The paper's Algorithm 2. */
ProfileResult profile_binary_optimized(CountingMeasure& measure,
                                       const ProfileOptions& opts);

/**
 * Random-fraction baseline: measure ~@p fraction of all settings
 * (plus the mandatory all-hosts column and row endpoints), linearly
 * interpolating the rest row by row.
 */
ProfileResult profile_random(CountingMeasure& measure,
                             const ProfileOptions& opts, double fraction,
                             Rng rng);

/**
 * Mean absolute percentage error of @p predicted against @p truth over
 * all n x m settings (j >= 1).
 */
double matrix_error_pct(const SensitivityMatrix& predicted,
                        const SensitivityMatrix& truth);

} // namespace imc::core

#endif // IMC_CORE_PROFILERS_HPP
