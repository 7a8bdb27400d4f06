#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace imc {

void
OnlineStats::add(double x)
{
    require(std::isfinite(x), "OnlineStats::add: non-finite sample");
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

int
LatencyRecorder::bucket_of(double x)
{
    // Sub-picosecond latencies collapse into one floor bucket so the
    // log stays finite; everything real lands in its 2^(1/8) bucket.
    constexpr double kFloor = 1e-12;
    if (x < kFloor)
        x = kFloor;
    return static_cast<int>(std::floor(std::log2(x) * 8.0));
}

void
LatencyRecorder::add(double x)
{
    require(std::isfinite(x) && x >= 0.0,
            "LatencyRecorder::add: sample must be finite and >= 0");
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    if (count_of(bucket_of(x))++ == 0)
        ++occupied_;
}

std::uint64_t&
LatencyRecorder::count_of(int bucket)
{
    if (counts_.empty()) {
        first_ = bucket;
        counts_.push_back(0);
    } else if (bucket < first_) {
        counts_.insert(counts_.begin(),
                       static_cast<std::size_t>(first_ - bucket), 0);
        first_ = bucket;
    } else if (static_cast<std::size_t>(bucket - first_) >=
               counts_.size()) {
        counts_.resize(static_cast<std::size_t>(bucket - first_) + 1, 0);
    }
    return counts_[static_cast<std::size_t>(bucket - first_)];
}

void
LatencyRecorder::merge(const LatencyRecorder& other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    n_ += other.n_;
    sum_ += other.sum_;
    // Ascending, so the array grows at its front at most once.
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
        const std::uint64_t c = other.counts_[i];
        if (c == 0)
            continue;
        std::uint64_t& mine = count_of(other.first_ + static_cast<int>(i));
        if (mine == 0)
            ++occupied_;
        mine += c;
    }
}

double
LatencyRecorder::mean() const
{
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
}

double
LatencyRecorder::quantile(double q) const
{
    require(n_ > 0, "LatencyRecorder::quantile: no samples");
    require(q >= 0.0 && q <= 100.0,
            "LatencyRecorder::quantile: q must be in [0, 100]");
    // The endpoints are tracked exactly; within-bucket interpolation
    // would only blur them.
    if (q == 0.0)
        return min_;
    if (q == 100.0)
        return max_;
    const double rank = q / 100.0 * static_cast<double>(n_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const std::uint64_t c = counts_[i];
        if (c == 0)
            continue;
        const int idx = first_ + static_cast<int>(i);
        if (rank < static_cast<double>(before + c)) {
            const double lo = std::exp2(static_cast<double>(idx) / 8.0);
            const double hi =
                std::exp2(static_cast<double>(idx + 1) / 8.0);
            const double frac =
                (rank - static_cast<double>(before)) /
                static_cast<double>(c);
            return std::clamp(lo + frac * (hi - lo), min_, max_);
        }
        before += c;
    }
    return max_;
}

double
mean(const std::vector<double>& xs)
{
    OnlineStats s;
    for (double x : xs)
        s.add(x);
    return s.mean();
}

double
stddev(const std::vector<double>& xs)
{
    OnlineStats s;
    for (double x : xs)
        s.add(x);
    return s.stddev();
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
percentile(std::vector<double> xs, double p)
{
    require(!xs.empty(), "percentile: empty sample set");
    require(p >= 0.0 && p <= 100.0, "percentile: p must be in [0, 100]");
    for (double x : xs)
        require(std::isfinite(x), "percentile: non-finite sample");
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs.front();
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double
abs_pct_error(double predicted, double actual)
{
    invariant(actual != 0.0, "abs_pct_error: actual must be nonzero");
    return 100.0 * std::fabs(predicted - actual) / std::fabs(actual);
}

double
mean_abs_pct_error(const std::vector<double>& predicted,
                   const std::vector<double>& actual)
{
    require(predicted.size() == actual.size() && !predicted.empty(),
            "mean_abs_pct_error: vectors must be equal-sized and nonempty");
    OnlineStats s;
    for (std::size_t i = 0; i < predicted.size(); ++i)
        s.add(abs_pct_error(predicted[i], actual[i]));
    return s.mean();
}

} // namespace imc
