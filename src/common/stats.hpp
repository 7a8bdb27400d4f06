#ifndef IMC_COMMON_STATS_HPP
#define IMC_COMMON_STATS_HPP

/**
 * @file
 * Streaming and batch statistics used by profiling, validation, and the
 * benchmark harnesses: Welford online moments, percentiles, a
 * deterministic streaming latency recorder (the ServiceApp tail-latency
 * metric), and the error metrics the paper reports (average percentage
 * error, standard deviation of errors, min/max error bars).
 *
 * Every entry point rejects non-finite samples loudly: these functions
 * back the p99 placement objective, and a NaN fed into std::sort is
 * strict-weak-ordering UB that can silently scramble every percentile.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace imc {

/**
 * Numerically stable online mean/variance accumulator (Welford).
 */
class OnlineStats {
  public:
    /** Fold one sample into the accumulator. @pre x is finite */
    void add(double x);

    /** Number of samples seen so far. */
    std::size_t count() const { return n_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Unbiased sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen; 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest sample seen; 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Streaming latency histogram with bucketed quantiles.
 *
 * Samples land in logarithmic buckets of width 2^(1/8) (≈9% growth),
 * at O(1) memory per decade. A quantile estimate lies in the bucket of
 * the order statistic at rank floor(q/100 * (n-1)) (0-based), so it
 * is within 9% of that one sample. percentile() instead interpolates
 * towards the next sample, so the two differ by more than a bucket
 * when those neighbours fall in different buckets: for {2, 4, 60},
 * p99 is about 4.36 here and 58.88 from percentile().
 * The recorder is a pure function of the sample *multiset*: two
 * recorders fed the same samples in any order hold identical bucket
 * tables, and buckets are walked in ascending order, so quantile
 * reports are deterministic and merge() is order-independent. (The
 * exact `sum()` is the one order-sensitive field, to float rounding.)
 *
 * The table is a flat count array indexed by bucket minus the lowest
 * bucket seen, grown to span the lowest to the highest: an add() is
 * an index and an increment, with no allocation once the range is
 * covered. A few hundred buckets span every latency a run produces.
 *
 * This is the p50/p95/p99 reporter behind ServiceApp: recorders
 * stream millions of request latencies without retaining samples,
 * and per-VM recorders merge into a per-app distribution.
 */
class LatencyRecorder {
  public:
    /** Record one latency sample. @pre x is finite and >= 0 */
    void add(double x);

    /** Fold another recorder's samples into this one. */
    void merge(const LatencyRecorder& other);

    /** Number of samples recorded. */
    std::uint64_t count() const { return n_; }

    /** Sum of all samples (exact, not bucketed). */
    double sum() const { return sum_; }

    /** Mean sample (exact); 0 when empty. */
    double mean() const;

    /** Smallest sample (exact); 0 when empty. */
    double min() const { return n_ ? min_ : 0.0; }

    /** Largest sample (exact); 0 when empty. */
    double max() const { return n_ ? max_ : 0.0; }

    /**
     * Quantile estimate via within-bucket linear interpolation,
     * clamped to the exact [min, max] envelope. The result lies in
     * the bucket holding the order statistic at rank
     * floor(q/100 * (n-1)).
     *
     * @param q quantile in [0, 100]
     * @pre at least one sample recorded
     */
    double quantile(double q) const;

    /** Number of distinct occupied buckets (memory footprint probe). */
    std::size_t buckets() const { return occupied_; }

  private:
    static int bucket_of(double x);

    /** The count of @p bucket, growing the array to cover it. */
    std::uint64_t& count_of(int bucket);

    std::vector<std::uint64_t> counts_; // counts_[i]: bucket first_ + i
    int first_ = 0;
    std::size_t occupied_ = 0; // nonzero entries of counts_
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of a vector; 0 when empty. */
double mean(const std::vector<double>& xs);

/** Unbiased sample standard deviation of a vector; 0 with < 2 samples. */
double stddev(const std::vector<double>& xs);

/** Median (linear-interpolated). @pre xs non-empty, all finite */
double median(std::vector<double> xs);

/**
 * Linear-interpolated percentile (the `p/100 * (n-1)` rank
 * convention, matching numpy's default).
 *
 * @param xs samples (copied and sorted internally)
 * @param p  percentile in [0, 100]
 * @pre xs non-empty and every sample finite — a NaN reaching
 *      std::sort is strict-weak-ordering UB, so garbage fails loudly
 */
double percentile(std::vector<double> xs, double p);

/**
 * Absolute percentage error between a prediction and a reference value,
 * in percent: 100 * |pred - actual| / actual.
 *
 * @pre actual != 0
 */
double abs_pct_error(double predicted, double actual);

/** Mean of abs_pct_error over paired vectors. @pre equal nonzero sizes */
double mean_abs_pct_error(const std::vector<double>& predicted,
                          const std::vector<double>& actual);

} // namespace imc

#endif // IMC_COMMON_STATS_HPP
