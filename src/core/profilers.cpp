#include "core/profilers.hpp"

#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/interp.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace imc::core {

const std::vector<double>&
default_pressure_grid()
{
    static const std::vector<double> grid{0.5, 1.0, 2.0, 3.0, 4.0,
                                          5.0, 6.0, 7.0, 8.0};
    return grid;
}

namespace {

constexpr double kHole = std::numeric_limits<double>::quiet_NaN();

bool
is_hole(double v)
{
    return std::isnan(v);
}

/** Raw profiling state: rows indexed by pressure-1, columns 0..m. */
using Grid = std::vector<std::vector<double>>;

Grid
make_grid(const ProfileOptions& opts)
{
    require(opts.pressure_levels() >= 1 && opts.hosts >= 1,
            "profilers: need at least one pressure level and host");
    for (std::size_t i = 1; i < opts.grid.size(); ++i) {
        require(opts.grid[i] > opts.grid[i - 1],
                "profilers: grid must be strictly increasing");
    }
    Grid grid(static_cast<std::size_t>(opts.pressure_levels()));
    for (auto& row : grid) {
        row.assign(static_cast<std::size_t>(opts.hosts) + 1, kHole);
        row[0] = 1.0; // no interference, by definition
    }
    return grid;
}

/**
 * Measure one setting, tolerating permanent failure. A cell whose
 * cluster run exhausted the RunService's retries (MeasurementFailed)
 * stays a hole for the interpolation fill and is counted in
 * @p degraded; every other error still propagates. Each algorithm
 * touches each cell at most once, so the count is exact — and, since
 * fault decisions are content-keyed, identical across thread counts.
 */
double
try_measure(CountingMeasure& measure, int pressure, int nodes,
            std::atomic<int>& degraded)
{
    try {
        return measure(pressure, nodes);
    } catch (const MeasurementFailed&) {
        degraded.fetch_add(1, std::memory_order_relaxed);
        return kHole;
    }
}

/**
 * Recursive bisection of one row (the paper's profile_binary_row):
 * refine (lo, hi) only while the endpoint values differ enough. A
 * hole endpoint (permanently failed run) stops refinement of its
 * interval — the interpolation fill covers it.
 */
void
binary_row(Grid& grid, CountingMeasure& measure, int pressure, int lo,
           int hi, double epsilon, std::atomic<int>& degraded)
{
    if (hi - lo <= 1)
        return;
    auto& row = grid[static_cast<std::size_t>(pressure - 1)];
    const double v_lo = row[static_cast<std::size_t>(lo)];
    const double v_hi = row[static_cast<std::size_t>(hi)];
    if (is_hole(v_lo) || is_hole(v_hi))
        return; // failed endpoint: leave the interval to the fill
    if (std::fabs(v_hi - v_lo) < epsilon)
        return; // flat enough: interpolation will fill the inside
    const int mid = (lo + hi) / 2;
    row[static_cast<std::size_t>(mid)] =
        try_measure(measure, pressure, mid, degraded);
    binary_row(grid, measure, pressure, lo, mid, epsilon, degraded);
    binary_row(grid, measure, pressure, mid, hi, epsilon, degraded);
}

/** Column counterpart (the paper's profile_binary_col), at node
 *  count j, bisecting over pressure levels. */
void
binary_col(Grid& grid, CountingMeasure& measure, int j, int p_lo,
           int p_hi, double epsilon, std::atomic<int>& degraded)
{
    if (p_hi - p_lo <= 1)
        return;
    const double v_lo =
        grid[static_cast<std::size_t>(p_lo - 1)][static_cast<std::size_t>(j)];
    const double v_hi =
        grid[static_cast<std::size_t>(p_hi - 1)][static_cast<std::size_t>(j)];
    if (is_hole(v_lo) || is_hole(v_hi))
        return; // failed endpoint: leave the interval to the fill
    if (std::fabs(v_hi - v_lo) < epsilon)
        return;
    const int mid = (p_lo + p_hi) / 2;
    grid[static_cast<std::size_t>(mid - 1)][static_cast<std::size_t>(j)] =
        try_measure(measure, mid, j, degraded);
    binary_col(grid, measure, j, p_lo, mid, epsilon, degraded);
    binary_col(grid, measure, j, mid, p_hi, epsilon, degraded);
}

/**
 * Clamp-extend edge holes so interpolate_holes always sees measured
 * endpoints: leading holes take the first measured value, trailing
 * holes the last (the same conservative clamping the model applies
 * to out-of-range queries). No-op when every value is a hole.
 */
void
clamp_edge_holes(std::vector<double>& vals)
{
    std::size_t first = vals.size();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (!is_hole(vals[i])) {
            first = i;
            break;
        }
    }
    if (first == vals.size())
        return; // nothing measured: caller's problem
    for (std::size_t i = 0; i < first; ++i)
        vals[i] = vals[first];
    std::size_t last = vals.size() - 1;
    while (is_hole(vals[last]))
        --last;
    for (std::size_t i = last + 1; i < vals.size(); ++i)
        vals[i] = vals[last];
}

/** Fill holes of one row by linear interpolation (interpolate_row). */
void
interpolate_row(Grid& grid, int pressure)
{
    auto& row = grid[static_cast<std::size_t>(pressure - 1)];
    // interpolate_holes uses an exact sentinel; convert NaN holes.
    std::vector<double> tmp = row;
    clamp_edge_holes(tmp);
    constexpr double sentinel = -1.0;
    for (auto& v : tmp) {
        if (is_hole(v))
            v = sentinel;
    }
    interpolate_holes(tmp, sentinel);
    row = tmp;
}

/** Fill holes of one column by linear interpolation over pressure. */
void
interpolate_col(Grid& grid, int j)
{
    std::vector<double> col;
    col.reserve(grid.size());
    for (const auto& row : grid)
        col.push_back(row[static_cast<std::size_t>(j)]);
    clamp_edge_holes(col);
    constexpr double sentinel = -1.0;
    for (auto& v : col) {
        if (is_hole(v))
            v = sentinel;
    }
    interpolate_holes(col, sentinel);
    for (std::size_t i = 0; i < grid.size(); ++i)
        grid[i][static_cast<std::size_t>(j)] = col[i];
}

ProfileResult
finish(Grid grid, CountingMeasure& measure, const ProfileOptions& opts,
       const char* algo, int degraded)
{
    if (degraded > 0) {
        // Degraded fill: permanently failed cells (and anything the
        // failure prevented the algorithm from inferring) are filled
        // row-wise by the interpolation path — clamped edge extension
        // plus linear fill; column 0 is 1.0 by definition, so every
        // row has at least one measured anchor.
        for (int p = 1; p <= opts.pressure_levels(); ++p)
            interpolate_row(grid, p);
    }
    for (const auto& row : grid) {
        for (double v : row)
            invariant(!is_hole(v), "profilers: unfilled hole remains");
    }
    ProfileResult result{
        SensitivityMatrix(std::move(grid), opts.grid),
        measure.measured(), opts.pressure_levels() * opts.hosts,
        degraded};
    if (IMC_OBS_ENABLED()) {
        // Rows measured vs inferred per algorithm (Table 3's cost
        // accounting, live). measured() is cumulative per wrapper, so
        // with a shared wrapper the counters track the union.
        const std::string prefix = std::string("profiler.") + algo;
        IMC_OBS_COUNT(prefix + ".runs");
        IMC_OBS_COUNT(prefix + ".measured",
                   static_cast<std::uint64_t>(result.measured));
        IMC_OBS_COUNT(prefix + ".interpolated",
                   static_cast<std::uint64_t>(
                       result.total_settings - result.measured));
        if (degraded > 0)
            IMC_OBS_COUNT(prefix + ".degraded_cells",
                       static_cast<std::uint64_t>(degraded));
    }
    return result;
}

} // namespace

ProfileResult
profile_exhaustive(CountingMeasure& measure, const ProfileOptions& opts)
{
    IMC_OBS_SPAN(span, "profiler.exhaustive");
    Grid grid = make_grid(opts);
    const int n = opts.pressure_levels();
    const int m = opts.hosts;

    // Every setting is known upfront: fan the whole grid out at once.
    std::vector<CountingMeasure::Setting> all;
    all.reserve(static_cast<std::size_t>(n) *
                static_cast<std::size_t>(m));
    for (int p = 1; p <= n; ++p) {
        for (int j = 1; j <= m; ++j)
            all.emplace_back(p, j);
    }
    measure.prefetch(all);

    // Rows never share state, so any row order yields the same grid.
    std::atomic<int> degraded{0};
    parallel_for(grid.size(), opts.row_tasks, [&](std::size_t row) {
        const int p = static_cast<int>(row) + 1;
        for (int j = 1; j <= m; ++j) {
            grid[row][static_cast<std::size_t>(j)] =
                try_measure(measure, p, j, degraded);
        }
    });
    return finish(std::move(grid), measure, opts, "exhaustive",
                  degraded.load());
}

ProfileResult
profile_binary_brute(CountingMeasure& measure, const ProfileOptions& opts)
{
    IMC_OBS_SPAN(span, "profiler.binary-brute");
    Grid grid = make_grid(opts);
    const int n = opts.pressure_levels();
    const int m = opts.hosts;

    // Every row starts from its (p, m) endpoint: fan those probes out
    // before the data-dependent bisections consume them.
    std::vector<CountingMeasure::Setting> endpoints;
    endpoints.reserve(static_cast<std::size_t>(n));
    for (int p = 1; p <= n; ++p)
        endpoints.emplace_back(p, m);
    measure.prefetch(endpoints);

    // Rows are independent (a row's bisection reads only its own
    // entries), so they can refine concurrently.
    std::atomic<int> degraded{0};
    parallel_for(grid.size(), opts.row_tasks, [&](std::size_t row) {
        const int p = static_cast<int>(row) + 1;
        grid[row][static_cast<std::size_t>(m)] =
            try_measure(measure, p, m, degraded);
        binary_row(grid, measure, p, 0, m, opts.epsilon, degraded);
        interpolate_row(grid, p);
    });
    return finish(std::move(grid), measure, opts, "binary-brute",
                  degraded.load());
}

ProfileResult
profile_binary_optimized(CountingMeasure& measure,
                         const ProfileOptions& opts)
{
    IMC_OBS_SPAN(span, "profiler.binary-optimized");
    Grid grid = make_grid(opts);
    const int n = opts.pressure_levels();
    const int m = opts.hosts;

    // Anchors: max-node count at min and max pressure.
    std::atomic<int> degraded{0};
    measure.prefetch({{1, m}, {n, m}});
    grid[0][static_cast<std::size_t>(m)] =
        try_measure(measure, 1, m, degraded);
    grid[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(m)] =
        try_measure(measure, n, m, degraded);

    // Top-pressure row via binary search.
    binary_row(grid, measure, n, 0, m, opts.epsilon, degraded);
    interpolate_row(grid, n);

    // Max-node column via binary search over pressures (only when
    // there are intermediate pressure levels).
    if (n >= 2) {
        binary_col(grid, measure, m, 1, n, opts.epsilon, degraded);
        interpolate_col(grid, m);
    }

    // Infer the interior: shapes are similar across pressures, so
    // scale the top row by each pressure's reach at m nodes. NaN
    // anchors (failed runs) propagate NaN into the inferred cells;
    // finish()'s degraded fill then covers them.
    const double top_reach =
        grid[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(m)] -
        1.0;
    for (int p = 1; p <= n; ++p) {
        auto& row = grid[static_cast<std::size_t>(p - 1)];
        const double reach = row[static_cast<std::size_t>(m)] - 1.0;
        for (int j = 1; j < m; ++j) {
            auto& cell = row[static_cast<std::size_t>(j)];
            if (!is_hole(cell))
                continue; // measured (top row) stays as measured
            const double top_j =
                grid[static_cast<std::size_t>(n - 1)]
                    [static_cast<std::size_t>(j)];
            if (top_reach > 1e-9) {
                cell = 1.0 + reach * (top_j - 1.0) / top_reach;
            } else {
                // Degenerate: the top curve is flat; fall back to a
                // flat row at the measured reach.
                cell = 1.0 + reach;
            }
        }
    }
    return finish(std::move(grid), measure, opts, "binary-optimized",
                  degraded.load());
}

ProfileResult
profile_random(CountingMeasure& measure, const ProfileOptions& opts,
               double fraction, Rng rng)
{
    require(fraction > 0.0 && fraction <= 1.0,
            "profile_random: fraction must be in (0, 1]");
    IMC_OBS_SPAN(span, "profiler.random");
    Grid grid = make_grid(opts);
    const int n = opts.pressure_levels();
    const int m = opts.hosts;

    // The whole sample set is fixed before anything is measured —
    // select first, then fan every chosen setting out in one batch.
    //
    // Mandatory: the all-hosts column, so every row has a measured
    // right endpoint for interpolation (the paper always measures
    // "interference in all hosts for each bubble pressure").
    int budget = static_cast<int>(std::lround(fraction * n * m));
    std::vector<CountingMeasure::Setting> chosen;
    for (int p = 1; p <= n; ++p) {
        chosen.emplace_back(p, m);
        --budget;
    }

    // Random fill of the remaining budget.
    std::vector<std::pair<int, int>> candidates;
    for (int p = 1; p <= n; ++p) {
        for (int j = 1; j < m; ++j)
            candidates.emplace_back(p, j);
    }
    // Fisher-Yates prefix shuffle.
    for (std::size_t i = 0;
         i < candidates.size() && budget > 0; ++i, --budget) {
        const std::size_t pick =
            i + rng.uniform_index(candidates.size() - i);
        std::swap(candidates[i], candidates[pick]);
        chosen.push_back(candidates[i]);
    }

    measure.prefetch(chosen);
    std::atomic<int> degraded{0};
    for (const auto& [p, j] : chosen) {
        grid[static_cast<std::size_t>(p - 1)][static_cast<std::size_t>(j)] =
            try_measure(measure, p, j, degraded);
    }

    for (int p = 1; p <= n; ++p)
        interpolate_row(grid, p);
    return finish(std::move(grid), measure, opts, "random",
                  degraded.load());
}

double
matrix_error_pct(const SensitivityMatrix& predicted,
                 const SensitivityMatrix& truth)
{
    require(predicted.pressure_levels() == truth.pressure_levels() &&
                predicted.hosts() == truth.hosts(),
            "matrix_error_pct: dimension mismatch");
    OnlineStats err;
    for (int p = 1; p <= truth.pressure_levels(); ++p) {
        for (int j = 1; j <= truth.hosts(); ++j)
            err.add(abs_pct_error(predicted.at(p, j), truth.at(p, j)));
    }
    return err.mean();
}

} // namespace imc::core
