#include "sim/wave.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/error.hpp"

namespace imc::sim::wave {

namespace {

// Quadrature resolution: kGrid1 for 1-D expectations, kGrid2 per axis
// of the 2-D slack integral (kGrid2^2 points per decay hop).
constexpr int kGrid1 = 4096;
constexpr int kGrid2 = 64;
// Decay-recursion hop budget; a wave still above delta0/e after this
// many mean-field hops is reported undamped (the bench's silent-ish
// corner, far outside any fitted scenario).
constexpr int kMaxHops = 20000;

/**
 * Inverse standard-normal CDF, Acklam's rational approximation
 * (~1e-9 absolute error) — deterministic, no <random>.
 */
double
inv_normal_cdf(double p)
{
    invariant(p > 0.0 && p < 1.0, "inv_normal_cdf: p outside (0,1)");
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};
    const double plow = 0.02425;
    if (p < plow) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                 c[4]) *
                    q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - plow) {
        const double q = std::sqrt(-2.0 * std::log(1.0 - p));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                  c[4]) *
                     q +
                 c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                r +
            1.0);
}

/**
 * Lognormal (mu, sigma) matching the Fenton–Wilkinson moments of a
 * sum of @p n iid unit-median lognormal(sigma_f) factors scaled by
 * @p scale each.
 */
struct SumLognormal {
    double mu = 0.0;
    double sigma = 0.0;

    SumLognormal(int n, double scale, double sigma_f)
    {
        const double e = std::exp(sigma_f * sigma_f);
        const double mean = static_cast<double>(n) * scale *
                            std::sqrt(e);
        const double var = static_cast<double>(n) * scale * scale * e *
                           (e - 1.0);
        const double s2 = std::log(1.0 + var / (mean * mean));
        sigma = std::sqrt(s2);
        mu = std::log(mean) - 0.5 * s2;
    }

    double quantile(double u) const
    {
        return std::exp(mu + sigma * inv_normal_cdf(u));
    }
};

/** Least-squares slope of y on x; 0 when x is degenerate. */
double
slope(const std::vector<double>& x, const std::vector<double>& y)
{
    const auto n = static_cast<double>(x.size());
    double mx = 0.0;
    double my = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= n;
    my /= n;
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sxx += (x[i] - mx) * (x[i] - mx);
        sxy += (x[i] - mx) * (y[i] - my);
    }
    if (sxx <= 0.0)
        return 0.0;
    return sxy / sxx;
}

/**
 * Shared shape of lateness_field / extra_wait_field: per-cell clamped
 * difference of @p metric between two same-shape timelines, negative
 * sentinels where either run did not stamp.
 */
template <typename Metric>
std::vector<double>
diff_field(const Timeline& injected, const Timeline& baseline,
           Metric metric)
{
    require(injected.ranks() == baseline.ranks() &&
                injected.iters() == baseline.iters(),
            "wave: timeline shapes differ");
    const int ranks = injected.ranks();
    const int iters = injected.iters();
    std::vector<double> field(static_cast<std::size_t>(ranks) *
                                  static_cast<std::size_t>(iters),
                              -1.0);
    for (int r = 0; r < ranks; ++r) {
        if (injected.absent(r) || baseline.absent(r))
            continue;
        const int n = std::min(injected.stamped_iters(r),
                               baseline.stamped_iters(r));
        for (int k = 0; k < n; ++k) {
            const double diff = metric(injected.cell(r, k)) -
                                metric(baseline.cell(r, k));
            field[static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(iters) +
                  static_cast<std::size_t>(k)] = std::max(0.0, diff);
        }
    }
    return field;
}

} // namespace

double
undamped()
{
    return std::numeric_limits<double>::infinity();
}

std::vector<double>
lateness_field(const Timeline& injected, const Timeline& baseline)
{
    return diff_field(injected, baseline, [](const TimelineCell& c) {
        return c.release;
    });
}

std::vector<double>
extra_wait_field(const Timeline& injected, const Timeline& baseline)
{
    return diff_field(injected, baseline, [](const TimelineCell& c) {
        return c.release - c.compute_end;
    });
}

/**
 * Fraction of a rank's own peak extra wait that marks the front's
 * arrival there. Relative, not absolute: a damped wave's leading edge
 * erodes first, so a fixed cut would slide backwards into the wave
 * body with distance and bias the fitted speed low.
 */
constexpr double kFrontFrac = 0.5;

Observed
extract_fronts(const Timeline& injected, const Timeline& baseline,
               int source_rank, int source_iter, double threshold)
{
    require(source_rank >= 0 && source_rank < injected.ranks(),
            "extract_fronts: source rank out of range");
    require(threshold > 0.0, "extract_fronts: threshold must be > 0");
    const int iters = injected.iters();
    const auto field = extra_wait_field(injected, baseline);

    Observed obs;
    obs.source_rank = source_rank;
    obs.source_iter = source_iter;
    for (int r = 0; r < injected.ranks(); ++r) {
        if (injected.absent(r) || baseline.absent(r))
            continue;
        Front f;
        f.rank = r;
        f.dist = std::abs(r - source_rank);
        const int n = std::min(injected.stamped_iters(r),
                               baseline.stamped_iters(r));
        if (n == 0)
            continue;
        const auto row = static_cast<std::size_t>(r) *
                         static_cast<std::size_t>(iters);
        for (int k = 0; k < n; ++k)
            f.amplitude = std::max(
                f.amplitude, field[row + static_cast<std::size_t>(k)]);
        if (f.amplitude >= threshold) {
            f.reached = true;
            const double crossing = kFrontFrac * f.amplitude;
            for (int k = 0; k < n; ++k) {
                if (field[row + static_cast<std::size_t>(k)] <
                    crossing)
                    continue;
                f.iter = k;
                f.time = baseline.cell(r, k).release;
                break;
            }
        }
        obs.fronts.push_back(f);
    }
    return obs;
}

namespace {

/** Per-capture amplitude envelope: max extra wait per distance,
 *  forced non-increasing outward so one noisy rank cannot fake a
 *  revival. Slot i holds distance i + 1 — the source rank itself
 *  never waits extra, so the envelope starts at the first hop. */
std::vector<double>
envelope(const Observed& obs)
{
    int max_dist = 0;
    for (const Front& f : obs.fronts)
        max_dist = std::max(max_dist, f.dist);
    if (max_dist < 1)
        return {};
    std::vector<double> env(static_cast<std::size_t>(max_dist), 0.0);
    for (const Front& f : obs.fronts) {
        if (f.dist < 1)
            continue;
        auto& slot = env[static_cast<std::size_t>(f.dist) - 1];
        slot = std::max(slot, f.amplitude);
    }
    for (std::size_t d = 1; d < env.size(); ++d)
        env[d] = std::min(env[d], env[d - 1]);
    return env;
}

/** Interpolated first crossing of env below env[dist 1]/e, in
 *  distance units; undamped() when it never crosses. */
double
efold_distance(const std::vector<double>& env)
{
    if (env.empty() || env[0] <= 0.0)
        return undamped();
    const double target = env[0] / std::exp(1.0);
    for (std::size_t d = 1; d < env.size(); ++d) {
        if (env[d] > target)
            continue;
        // Interpolate in log-amplitude between the two slots
        // (linearly when the envelope hit zero).
        const double hi = env[d - 1];
        const double lo = env[d];
        double frac = 1.0;
        if (lo > 0.0 && hi > lo)
            frac = (std::log(hi) - std::log(target)) /
                   (std::log(hi) - std::log(lo));
        else if (hi > 0.0)
            frac = (hi - target) / hi;
        return static_cast<double>(d) + std::clamp(frac, 0.0, 1.0);
    }
    return undamped();
}

} // namespace

Fit
fit_waves(const std::vector<Observed>& runs)
{
    Fit fit;
    if (runs.empty())
        return fit;

    // Decay: average the per-run envelopes (over their common
    // distance range), then locate the e-folding crossing.
    std::vector<std::vector<double>> envs;
    envs.reserve(runs.size());
    std::size_t common = std::numeric_limits<std::size_t>::max();
    for (const Observed& obs : runs) {
        envs.push_back(envelope(obs));
        common = std::min(common, envs.back().size());
    }
    std::vector<double> mean_env(common, 0.0);
    for (const auto& env : envs)
        for (std::size_t d = 0; d < common; ++d)
            mean_env[d] += env[d];
    for (double& v : mean_env)
        v /= static_cast<double>(envs.size());

    fit.amplitude0 = mean_env.empty() ? 0.0 : mean_env[0];
    fit.decay_length = efold_distance(mean_env);

    // Speed: front distance regressed on arrival time / iteration,
    // pooled over every run's reached ranks at distance >= 1. Only
    // the contiguous run of reached ranks on each side of the source
    // votes: the coherent front is unbroken, while ranks reached
    // again past a gap are diffusive percolation revivals arriving
    // far behind schedule, and their leverage would flatten the
    // slope.
    std::vector<double> dist;
    std::vector<double> time;
    std::vector<double> iter;
    for (const Observed& obs : runs) {
        std::vector<const Front*> by_rank;
        int max_rank = 0;
        for (const Front& f : obs.fronts)
            max_rank = std::max(max_rank, f.rank);
        by_rank.assign(static_cast<std::size_t>(max_rank) + 1,
                       nullptr);
        for (const Front& f : obs.fronts)
            by_rank[static_cast<std::size_t>(f.rank)] = &f;
        for (int side : {-1, 1}) {
            for (int d = 1;; ++d) {
                const int r = obs.source_rank + side * d;
                if (r < 0 || r > max_rank)
                    break;
                const Front* f =
                    by_rank[static_cast<std::size_t>(r)];
                if (f == nullptr || !f->reached)
                    break;
                dist.push_back(static_cast<double>(f->dist));
                time.push_back(f->time);
                iter.push_back(static_cast<double>(f->iter));
            }
        }
    }
    fit.ranks_used = static_cast<int>(dist.size());
    if (fit.ranks_used < 3)
        return fit;
    fit.ranks_per_sec = slope(time, dist);
    fit.ranks_per_iter = slope(iter, dist);
    fit.converged = true;
    return fit;
}

Fit
fit_wave(const Observed& obs)
{
    return fit_waves({obs});
}

Prediction
analytic(const Model& m)
{
    require(m.halo >= 1, "wave::analytic: halo must be >= 1");
    require(m.period >= 1, "wave::analytic: period must be >= 1");
    require(m.work > 0.0, "wave::analytic: work must be > 0");
    require(m.sync_cost >= 0.0, "wave::analytic: negative sync cost");
    require(m.noise_sigma >= 0.0, "wave::analytic: negative sigma");
    require(m.delay > 0.0, "wave::analytic: delay must be > 0");

    Prediction p;
    p.ranks_per_period = static_cast<double>(m.halo);

    if (m.noise_sigma <= 0.0) {
        // Silent system: every period lasts exactly period*work +
        // sync_cost and the full delay survives every hop.
        p.period_seconds =
            static_cast<double>(m.period) * m.work + m.sync_cost;
        p.ranks_per_sec = p.ranks_per_period / p.period_seconds;
        p.decay_length = undamped();
        return p;
    }

    const int neighborhood = 2 * m.halo + 1;
    const SumLognormal period_sum(m.period, m.work, m.noise_sigma);

    // Pace: each release waits for the slowest of the 2*halo+1
    // period sums in its neighborhood.
    double max_sum = 0.0;
    for (int i = 0; i < kGrid1; ++i) {
        const double u = (static_cast<double>(i) + 0.5) /
                         static_cast<double>(kGrid1);
        max_sum += period_sum.quantile(
            std::pow(u, 1.0 / static_cast<double>(neighborhood)));
    }
    max_sum /= static_cast<double>(kGrid1);
    p.period_seconds = max_sum + m.sync_cost;
    p.ranks_per_sec = p.ranks_per_period / p.period_seconds;

    // Decay: per hop the carried delay shrinks by the slack G the
    // receiving neighborhood would have spent waiting anyway —
    // G = max(0, max of the 2*halo other members - carrier), both
    // axes discretized on midpoint quantile grids.
    const int others = neighborhood - 1;
    std::vector<double> carrier(kGrid2);
    std::vector<double> other_max(kGrid2);
    for (int i = 0; i < kGrid2; ++i) {
        const double u = (static_cast<double>(i) + 0.5) /
                         static_cast<double>(kGrid2);
        carrier[static_cast<std::size_t>(i)] = period_sum.quantile(u);
        other_max[static_cast<std::size_t>(i)] = period_sum.quantile(
            std::pow(u, 1.0 / static_cast<double>(others)));
    }

    const double target = m.delay / std::exp(1.0);
    double delta = m.delay;
    p.decay_length = undamped();
    for (int hop = 1; hop <= kMaxHops; ++hop) {
        double next = 0.0;
        for (int i = 0; i < kGrid2; ++i) {
            for (int j = 0; j < kGrid2; ++j) {
                const double g = std::max(
                    0.0, other_max[static_cast<std::size_t>(j)] -
                             carrier[static_cast<std::size_t>(i)]);
                next += std::max(0.0, delta - g);
            }
        }
        next /= static_cast<double>(kGrid2) *
                static_cast<double>(kGrid2);
        if (next <= target) {
            // Interpolate the crossing inside this hop.
            const double frac =
                delta > next ? (delta - target) / (delta - next) : 1.0;
            p.decay_length = (static_cast<double>(hop - 1) +
                              std::clamp(frac, 0.0, 1.0)) *
                             static_cast<double>(m.halo);
            break;
        }
        delta = next;
    }
    return p;
}

} // namespace imc::sim::wave
