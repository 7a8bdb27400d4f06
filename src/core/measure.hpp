#ifndef IMC_CORE_MEASURE_HPP
#define IMC_CORE_MEASURE_HPP

/**
 * @file
 * The measurement boundary between the model and the world.
 *
 * The interference model may observe an application ONLY through these
 * callbacks — the analogue of the paper's profiling runs on the real
 * cluster. MeasureFn measures one homogeneous setting (pressure level,
 * number of interfering nodes); HeteroMeasureFn measures one
 * heterogeneous per-node pressure vector. CountingMeasure wraps a
 * MeasureFn to count and cache invocations, which is how profiling
 * *cost* (Table 3) is accounted.
 *
 * Every cluster measurement runs through a workload::RunService: the
 * factories route the leaf runs through the service's worker pool and
 * content-addressed cache (a 1-thread service runs them inline on the
 * caller), and a *batch-prefetch* hook lets a profiler fan out every
 * setting it knows it will need before consuming them serially.
 */

#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/heterogeneity.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

namespace imc::core {

/**
 * Normalized execution time of one homogeneous interference setting:
 * @c nodes nodes each under a bubble at pressure level @c pressure
 * (a 1-based index into the profiling grid). measure(p, 0) is 1 by
 * definition for any p.
 */
using MeasureFn = std::function<double(int pressure, int nodes)>;

/**
 * Counting/caching wrapper around a MeasureFn.
 *
 * Each distinct (pressure, nodes) setting is measured at most once;
 * the count of distinct measured settings is the profiling cost.
 * Settings with nodes == 0 are free (they are 1 by definition), which
 * matches the paper's cost accounting.
 *
 * Thread-safe: concurrent callers (row-parallel profiling) may hit
 * distinct or identical settings; a setting is *counted* exactly once
 * either way, so the cost accounting is deterministic under any
 * interleaving. The inner function must itself be safe to invoke
 * concurrently (cluster measures are: each run is self-contained).
 */
class CountingMeasure {
  public:
    /** One (pressure level, interfering-node count) setting. */
    using Setting = std::pair<int, int>;
    /**
     * Batch-prefetch hook: schedule (without waiting) the cluster
     * runs behind the given settings, so later measure() calls find
     * them done or in flight. Purely an execution hint — it must not
     * change any measured value and does not affect cost accounting.
     */
    using PrefetchFn = std::function<void(const std::vector<Setting>&)>;

    explicit CountingMeasure(MeasureFn inner,
                             PrefetchFn prefetch = nullptr);

    /** Measure (or return the cached value of) one setting. */
    double operator()(int pressure, int nodes);

    /**
     * Fan out the runs behind settings not yet cached. No-op without
     * a prefetch hook (plain serial backend). Settings with
     * nodes == 0 are skipped (free by definition).
     */
    void prefetch(const std::vector<Setting>& settings);

    /** Distinct settings measured so far (nodes >= 1 only). */
    int measured() const;

  private:
    struct SettingHash {
        std::size_t operator()(const Setting& s) const
        {
            // Settings are tiny non-negative ints; pack into one word.
            return static_cast<std::size_t>(
                (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(s.first))
                 << 32) ^
                static_cast<std::uint32_t>(s.second));
        }
    };

    mutable std::mutex mutex_;
    MeasureFn inner_;
    PrefetchFn prefetch_;
    // Determinism audit (imc-lint determinism-taint): find/
    // emplace only; values and the measured() cost are functions of
    // the setting set, not of insertion or iteration order
    // (tests/test_determinism.cpp).
    std::unordered_map<Setting, double, SettingHash> cache_;
    int measured_ = 0;
};

/**
 * Build the cluster-backed homogeneous measurement function for an
 * application: deploys the app on @p nodes, places bubbles on the
 * first j of them, runs, and normalizes against the solo run.
 *
 * @param app     application to measure
 * @param nodes   its deployment
 * @param cfg     run configuration
 * @param grid    bubble pressure of each level (level i -> grid[i-1])
 * @param service runs every measurement; must outlive the returned
 *        function
 */
MeasureFn
make_cluster_measure(const workload::AppSpec& app,
                     const std::vector<sim::NodeId>& nodes,
                     const workload::RunConfig& cfg,
                     const std::vector<double>& grid,
                     workload::RunService& service);

/**
 * Batch-prefetch hook matching make_cluster_measure: submits the
 * loaded run of every given setting plus the shared solo baseline,
 * without waiting.
 */
CountingMeasure::PrefetchFn
make_cluster_prefetch(const workload::AppSpec& app,
                      const std::vector<sim::NodeId>& nodes,
                      const workload::RunConfig& cfg,
                      const std::vector<double>& grid,
                      workload::RunService& service);

/** Heterogeneous counterpart (per-node pressures over @p nodes). */
HeteroMeasureFn
make_cluster_hetero_measure(const workload::AppSpec& app,
                            const std::vector<sim::NodeId>& nodes,
                            const workload::RunConfig& cfg,
                            workload::RunService& service);

} // namespace imc::core

#endif // IMC_CORE_MEASURE_HPP
