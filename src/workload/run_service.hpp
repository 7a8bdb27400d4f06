#ifndef IMC_WORKLOAD_RUN_SERVICE_HPP
#define IMC_WORKLOAD_RUN_SERVICE_HPP

/**
 * @file
 * The measurement service: batched, parallel, cache-backed cluster
 * runs.
 *
 * Every profiling, scoring, and validation measurement in the project
 * bottoms out in one of two leaf runs — run_app_time (an application
 * under static interference) or run_corun_time (a target against
 * restarting co-runners). Both are *pure* functions of their
 * arguments: all randomness derives from the RunConfig's seed and
 * salt, never from global state. A RunService exploits that purity
 * three ways:
 *
 *  1. *Content-addressed caching.* Each RunRequest canonicalizes to a
 *     byte string covering every field the leaf run reads (cluster
 *     spec, app spec(s), deployment, extra tenants, seed/salt/reps).
 *     Identical requests — across algorithms, benches, and layers —
 *     execute once.
 *  2. *Parallelism.* Independent requests run concurrently on a
 *     worker pool. Because each run derives its randomness from its
 *     own content, parallel and serial execution produce bit-identical
 *     numbers (locked down by tests/test_run_service.cpp).
 *  3. *Batching.* submit() returns a future-like handle without
 *     blocking, so a caller can fan out a whole campaign (a profiling
 *     grid, a calibration sweep, a validation matrix) and then gather,
 *     the way real profiling campaigns batch cluster jobs.
 *
 * Requests must never be submitted from inside a leaf run (the
 * orchestration layers — profilers, scorer, registry — all submit
 * from caller threads), so the pool cannot deadlock on itself.
 *
 * The worker count is the service's one setting; its retry policy
 * under an armed fault schedule is fixed (see RunService).
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workload/runner.hpp"

namespace imc::workload {

/** Which leaf measurement a request describes. */
enum class RunKind {
    /** run_app_time: the app under static extra tenants. */
    AppTime,
    /** run_corun_time: the target against restarting co-runners. */
    CorunTime,
};

/**
 * One cluster run, fully described by value.
 *
 * A request carries everything the leaf functions read, so its
 * canonical form is a complete cache key and its execution needs no
 * context beyond the request itself.
 */
struct RunRequest {
    RunKind kind = RunKind::AppTime;
    /** The measured (target) application. */
    AppSpec app;
    /** Its deployment. */
    std::vector<sim::NodeId> nodes;
    /** Static interference sources (AppTime only). */
    std::vector<ExtraTenant> extra;
    /** Restarting co-runners (CorunTime only). */
    std::vector<Deployment> corunners;
    /** Cluster / seed / reps / salt of the run. */
    RunConfig cfg;
};

/** Request mirroring run_app_time(app, nodes, extra, cfg). */
RunRequest app_time_request(const AppSpec& app,
                            const std::vector<sim::NodeId>& nodes,
                            const std::vector<ExtraTenant>& extra,
                            const RunConfig& cfg);

/** Request mirroring run_solo_time(app, nodes, cfg). */
RunRequest solo_time_request(const AppSpec& app,
                             const std::vector<sim::NodeId>& nodes,
                             const RunConfig& cfg);

/** Request mirroring run_corun_time(target, nodes, corunners, cfg). */
RunRequest corun_time_request(const AppSpec& target,
                              const std::vector<sim::NodeId>& nodes,
                              const std::vector<Deployment>& corunners,
                              const RunConfig& cfg);

/**
 * Canonical content string of a request — the cache key. Two requests
 * share a key iff the leaf run they describe is identical; doubles
 * are keyed by bit pattern, so no precision is lost.
 */
std::string canonical_key(const RunRequest& req);

/** Execute a request synchronously on the calling thread. */
double execute_request(const RunRequest& req);

/**
 * Batched, parallel, cache-backed measurement backend.
 *
 * Thread-safe. With threads == 1 the service executes requests inline
 * at submit() on the calling thread (the exact serial behaviour the
 * recorded figure benches ship with); with more threads it owns a
 * worker pool and submit() only enqueues. Results are bit-identical
 * either way.
 *
 * Under an armed fault schedule (imc::fault) the service retries
 * injected failures and timeouts with a fixed policy: 3 attempts per
 * request, each re-rolling the schedule at the next attempt ordinal,
 * so every decision is a pure function of (seed, site, key, attempt).
 * An injected delay of 20 ms or more is a timeout, counted WITHOUT
 * serving the delay, so a "hung" schedule cannot hang the service;
 * shorter delays are slept. Attempt a waits 2^a ms before the next;
 * that backoff is wall-clock pacing only and never feeds a value. A
 * request that fails all 3 attempts completes with MeasurementFailed,
 * which single-flights into the cache like any other result (every
 * later submit of the same key observes the same failure). Real leaf
 * runs are pure in-process functions that cannot fail or straggle, so
 * with no schedule armed the service runs exactly the recorded-figure
 * code path.
 */
class RunService {
  public:
    /**
     * @param threads worker count; 1 = inline serial execution,
     *        0 = hardware concurrency
     */
    explicit RunService(int threads = 0);

    ~RunService();

    RunService(const RunService&) = delete;
    RunService& operator=(const RunService&) = delete;

    /** Effective worker count (>= 1). */
    int threads() const { return threads_; }

    /** Future-like handle to one (possibly shared) measurement. */
    class Handle {
      public:
        Handle() = default;

        /** Block until the run completes; rethrows its error. */
        double get() const;

        /** True once the result (or an error) is available. */
        bool ready() const;

      private:
        friend class RunService;
        struct Entry;
        explicit Handle(std::shared_ptr<Entry> entry)
            : entry_(std::move(entry))
        {
        }
        std::shared_ptr<Entry> entry_;
    };

    /**
     * Schedule a request (or join the identical in-flight/cached one)
     * and return a handle to its result.
     */
    Handle submit(const RunRequest& req);

    /** submit() + get(): one measurement, synchronously. */
    double run(const RunRequest& req) { return submit(req).get(); }

    /** Fan out a batch and gather results in request order. */
    std::vector<double> run_all(const std::vector<RunRequest>& reqs);

    /** Cache and execution accounting. */
    struct Stats {
        /** submit() calls (including duplicates). */
        std::uint64_t submitted = 0;
        /** Distinct requests actually executed. */
        std::uint64_t executed = 0;
        /** Submits served by the cache or an in-flight run. */
        std::uint64_t cache_hits = 0;
        /** Injected-fault retries performed (armed schedules only). */
        std::uint64_t retries = 0;
        /** Injected straggler delays that hit the deadline. */
        std::uint64_t timeouts = 0;
        /** Requests that exhausted every attempt (MeasurementFailed). */
        std::uint64_t failed = 0;
    };
    Stats stats() const;

  private:
    struct Job;

    void worker_loop();

    /** Execute one attempt loop under the armed fault schedule. */
    double execute_with_faults(const RunRequest& req,
                               const std::string& key);

    /** Run the request and publish its result (or error) to @p entry. */
    void execute_into(const RunRequest& req, const std::string& key,
                      Handle::Entry& entry);

    int threads_ = 1;
    mutable std::mutex mutex_; // guards cache_, queue_, stats, stop_
    std::condition_variable work_cv_;
    // Determinism audit (imc-lint determinism-taint): the
    // content-addressed cache is find/emplace only; every result is
    // a pure function of its canonical key, so cache layout and
    // submission order cannot reach measured values
    // (tests/test_determinism.cpp byte-compares a serialized model
    // across cache histories).
    std::unordered_map<std::string, std::shared_ptr<Handle::Entry>>
        cache_;
    std::deque<Job> queue_;
    Stats stats_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace imc::workload

#endif // IMC_WORKLOAD_RUN_SERVICE_HPP
