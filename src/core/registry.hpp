#ifndef IMC_CORE_REGISTRY_HPP
#define IMC_CORE_REGISTRY_HPP

/**
 * @file
 * Model construction and caching.
 *
 * A ModelRegistry owns the full profiling pipeline for a cluster
 * configuration: sensitivity-matrix profiling (with a selectable
 * algorithm), heterogeneity policy selection from random samples, and
 * bubble scoring. Models are cached by (application, deployment size),
 * since on a homogeneous cluster only the number of occupied nodes
 * matters.
 *
 * Measurements run through a workload::RunService, which batches the
 * underlying cluster runs onto a worker pool and deduplicates
 * repeats; distinct (app, size) models build concurrently via
 * prefetch(). Results are bit-identical at any thread count. An
 * optional on-disk model cache persists profiled models across
 * invocations (profiling once and reusing the model is the paper's
 * own deployment story, Section 4.4).
 */

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/model.hpp"
#include "core/profilers.hpp"
#include "core/scorer.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

namespace imc::core {

/** Which profiling algorithm builds the sensitivity matrix. */
enum class ProfileAlgorithm {
    Exhaustive,
    BinaryBrute,
    BinaryOptimized,
    Random30,
    Random50,
};

/** Paper-style algorithm name. */
std::string to_string(ProfileAlgorithm algorithm);

/** Knobs of the model-building pipeline. */
struct ModelBuildOptions {
    ProfileAlgorithm algorithm = ProfileAlgorithm::BinaryOptimized;
    /** Binary-search refinement threshold. */
    double epsilon = 0.05;
    /** Random heterogeneous samples for policy selection
     *  (Section 3.3 uses 60 on the private cluster, 100 on EC2). */
    int policy_samples = 60;
    /**
     * Directory for the persistent model cache; empty disables it.
     * A built model is saved as
     * <abbrev>_n<size>_<config-hash>.model and reloaded by any later
     * registry with the same configuration — the config hash covers
     * cluster, seed, reps, algorithm, epsilon, and policy samples, so
     * a stale cache can never serve a mismatched model.
     */
    std::string model_cache_dir;
};

/** Everything profiled for one (application, deployment). */
struct BuiltModel {
    InterferenceModel model;
    /** Per-policy fits from the selection step (empty when the model
     *  was loaded from the on-disk cache). */
    std::vector<PolicyFit> policy_fits;
    /** Profiling cost of the matrix build, fraction of settings
     *  (0 when loaded from the on-disk cache). */
    double profile_cost = 0.0;
    /** True when served from the on-disk model cache. */
    bool from_disk_cache = false;
};

/** Builds and caches interference models for a cluster. */
class ModelRegistry {
  public:
    /**
     * @param cfg     cluster/seed/reps configuration for profiling
     * @param opts    pipeline knobs
     * @param service measurement backend shared by every profiling
     *        run; must outlive the registry
     * @throws ConfigError when @p service is null
     */
    ModelRegistry(workload::RunConfig cfg, ModelBuildOptions opts,
                  workload::RunService* service);

    /**
     * The model of @p app at a deployment spanning @p deploy_nodes
     * nodes (profiled on nodes [0, deploy_nodes) by symmetry).
     * Builds on first use, then caches; the returned reference stays
     * valid for the registry's lifetime. Thread-safe: at most one
     * caller builds a given key, and *distinct* keys build
     * concurrently (the lock is per-model, not registry-wide).
     */
    const BuiltModel& model(const workload::AppSpec& app,
                            int deploy_nodes);

    /** Convenience: full-cluster deployment. */
    const BuiltModel& model(const workload::AppSpec& app);

    /**
     * Build any missing models of @p apps at @p deploy_nodes
     * concurrently (one builder thread per app through parallel_for;
     * the leaf cluster runs additionally fan out across the service's
     * worker pool). Identical results to calling model() serially;
     * an error is the lowest-indexed failing app's, as in the serial
     * loop.
     */
    void prefetch(const std::vector<workload::AppSpec>& apps,
                  int deploy_nodes);

    /** The shared bubble scorer (exposed for the Table 4 bench). */
    const BubbleScorer& scorer() const { return scorer_; }

    /** The profiling configuration. */
    const workload::RunConfig& config() const { return cfg_; }

    /** The pipeline options. */
    const ModelBuildOptions& options() const { return opts_; }

    /** The measurement backend. */
    workload::RunService& service() const { return service_; }

    /**
     * Corrupt on-disk cache entries detected (and moved aside) so
     * far. A corrupt entry — torn file, wrong format, injected
     * corruption — is renamed to "<entry>.quarantined" and the model
     * is rebuilt from scratch instead of crashing the pipeline.
     */
    std::uint64_t quarantined_count() const
    {
        return quarantined_.load(std::memory_order_relaxed);
    }

  private:
    /** One cache slot; built at most once via its flag. */
    struct Slot {
        std::once_flag once;
        std::unique_ptr<BuiltModel> built;
    };

    BuiltModel build(const workload::AppSpec& app, int deploy_nodes);

    /** Cache-file path of a key, or "" when caching is disabled. */
    std::string cache_path(const std::string& abbrev,
                           int deploy_nodes) const;

    /** Move a corrupt cache entry aside and count it. */
    void quarantine(const std::string& path);

    workload::RunConfig cfg_;
    ModelBuildOptions opts_;
    workload::RunService& service_;
    BubbleScorer scorer_;
    std::atomic<std::uint64_t> quarantined_{0};
    /** Guards cache_ only; builds run outside it. */
    std::mutex mutex_;
    std::map<std::pair<std::string, int>, std::shared_ptr<Slot>>
        cache_;
};

/**
 * Run one profiling algorithm against a counting measure (dispatch
 * helper shared by the registry and the Table 3 bench).
 */
ProfileResult run_profiler(ProfileAlgorithm algorithm,
                           CountingMeasure& measure,
                           const ProfileOptions& opts,
                           std::uint64_t seed);

} // namespace imc::core

#endif // IMC_CORE_REGISTRY_HPP
