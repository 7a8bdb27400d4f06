#include "core/registry.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "common/parallel.hpp"
#include "core/serialize.hpp"

namespace imc::core {

std::string
to_string(ProfileAlgorithm algorithm)
{
    switch (algorithm) {
      case ProfileAlgorithm::Exhaustive:
        return "exhaustive";
      case ProfileAlgorithm::BinaryBrute:
        return "binary-brute";
      case ProfileAlgorithm::BinaryOptimized:
        return "binary-optimized";
      case ProfileAlgorithm::Random30:
        return "random-30%";
      case ProfileAlgorithm::Random50:
        return "random-50%";
    }
    throw LogicBug("to_string: unknown ProfileAlgorithm");
}

ProfileResult
run_profiler(ProfileAlgorithm algorithm, CountingMeasure& measure,
             const ProfileOptions& opts, std::uint64_t seed)
{
    switch (algorithm) {
      case ProfileAlgorithm::Exhaustive:
        return profile_exhaustive(measure, opts);
      case ProfileAlgorithm::BinaryBrute:
        return profile_binary_brute(measure, opts);
      case ProfileAlgorithm::BinaryOptimized:
        return profile_binary_optimized(measure, opts);
      case ProfileAlgorithm::Random30:
        return profile_random(measure, opts, 0.30, Rng(seed));
      case ProfileAlgorithm::Random50:
        return profile_random(measure, opts, 0.50, Rng(seed));
    }
    throw LogicBug("run_profiler: unknown ProfileAlgorithm");
}

namespace {

std::uint64_t
hash_double(std::uint64_t h, double v)
{
    return hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

/**
 * Hash of everything a built model depends on besides (app, size):
 * cluster profile, seed/reps/salt, and the pipeline knobs. Embedded
 * in the cache filename so a directory can safely hold models from
 * different configurations side by side.
 */
std::uint64_t
config_hash(const workload::RunConfig& cfg,
            const ModelBuildOptions& opts)
{
    std::uint64_t h = hash_string("model-cache-v1");
    h = hash_combine(h, hash_string(cfg.cluster.name));
    h = hash_combine(h,
                     static_cast<std::uint64_t>(cfg.cluster.num_nodes));
    h = hash_double(h, cfg.cluster.node.llc_mb);
    h = hash_double(h, cfg.cluster.node.bw_gbps);
    h = hash_double(h, cfg.cluster.node.share_alpha);
    h = hash_combine(
        h, static_cast<std::uint64_t>(cfg.cluster.slots_per_node));
    h = hash_combine(
        h, static_cast<std::uint64_t>(cfg.cluster.procs_per_unit));
    h = hash_double(h, cfg.cluster.background_sigma);
    h = hash_combine(h, cfg.seed);
    h = hash_combine(h, static_cast<std::uint64_t>(cfg.reps));
    h = hash_combine(h, cfg.salt);
    h = hash_combine(h, hash_string(to_string(opts.algorithm)));
    h = hash_double(h, opts.epsilon);
    h = hash_combine(h,
                     static_cast<std::uint64_t>(opts.policy_samples));
    return h;
}

workload::RunService&
non_null(workload::RunService* service)
{
    require(service != nullptr,
            "ModelRegistry: service must be a RunService, not null");
    return *service;
}

} // namespace

ModelRegistry::ModelRegistry(workload::RunConfig cfg,
                             ModelBuildOptions opts,
                             workload::RunService* service)
    : cfg_(std::move(cfg)), opts_(std::move(opts)),
      service_(non_null(service)), scorer_(cfg_, service_)
{
}

std::string
ModelRegistry::cache_path(const std::string& abbrev,
                          int deploy_nodes) const
{
    if (opts_.model_cache_dir.empty())
        return {};
    char tail[64];
    // imc-lint: allow(banned-printf): fixed-width hex of the config
    // hash for a cache file name, into a sized stack buffer; stable
    // format matters more than stream idiom here.
    std::snprintf(tail, sizeof tail, "_n%d_%016llx.model", deploy_nodes,
                  static_cast<unsigned long long>(
                      config_hash(cfg_, opts_)));
    return (std::filesystem::path(opts_.model_cache_dir) /
            (abbrev + tail))
        .string();
}

const BuiltModel&
ModelRegistry::model(const workload::AppSpec& app, int deploy_nodes)
{
    require(deploy_nodes >= 1 &&
                deploy_nodes <= cfg_.cluster.num_nodes,
            "ModelRegistry: deployment size out of range");
    IMC_OBS_COUNT("registry.requests");
    const auto key = std::make_pair(app.abbrev, deploy_nodes);
    std::shared_ptr<Slot> slot;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto& entry = cache_[key];
        if (!entry)
            entry = std::make_shared<Slot>();
        slot = entry;
    }
    // The build runs outside the registry lock: concurrent callers
    // asking for *distinct* keys profile in parallel, while callers
    // of the *same* key all block on its once-flag and at most one
    // builds (an exception releases the flag for the next caller).
    std::call_once(slot->once, [&] {
        slot->built =
            std::make_unique<BuiltModel>(build(app, deploy_nodes));
    });
    return *slot->built;
}

const BuiltModel&
ModelRegistry::model(const workload::AppSpec& app)
{
    return model(app, cfg_.cluster.num_nodes);
}

void
ModelRegistry::prefetch(const std::vector<workload::AppSpec>& apps,
                        int deploy_nodes)
{
    // One builder thread per app; the leaf runs each build submits
    // additionally spread across the service's pool. Builder threads
    // are *callers* of the service, never its workers, so this cannot
    // deadlock the pool.
    parallel_for(apps.size(), static_cast<int>(apps.size()),
                 [&](std::size_t i) { model(apps[i], deploy_nodes); });
}

void
ModelRegistry::quarantine(const std::string& path)
{
    // Move the corrupt entry aside (keeping it for post-mortem) so
    // the rebuild below can atomically write a fresh one; if even the
    // rename fails, fall back to deleting the entry.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    if (ec)
        std::filesystem::remove(path, ec);
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    IMC_OBS_COUNT("registry.quarantined");
}

BuiltModel
ModelRegistry::build(const workload::AppSpec& app, int deploy_nodes)
{
    // 0. Persistent cache: a model profiled by an earlier invocation
    // with the identical configuration is simply reloaded (the paper's
    // profile-once deployment story, Section 4.4). A corrupt entry —
    // torn file, foreign bytes, injected corruption — is quarantined
    // and rebuilt instead of crashing the pipeline.
    const std::string path = cache_path(app.abbrev, deploy_nodes);
    if (!path.empty() && std::filesystem::exists(path)) {
        try {
            // Keyed by the entry's file name (stable across cache
            // directories), so an injected-corruption schedule hits
            // the same entries in every environment.
            if (IMC_FAULT_PROBE(
                    "registry.cache.load",
                    std::filesystem::path(path).filename().string(), 0)
                    .corrupt) {
                throw ConfigError(
                    "ModelRegistry: fault-injected corruption "
                    "reading '" +
                    path + "'");
            }
            BuiltModel loaded{load_model_file(path), {}, 0.0, true};
            require(loaded.model.app() == app.abbrev,
                    "ModelRegistry: cached model app mismatch in " +
                        path);
            IMC_OBS_COUNT("registry.disk_cache_hits");
            return loaded;
        } catch (const ConfigError&) {
            quarantine(path);
        }
    }
    IMC_OBS_SPAN(span, "registry.build:" + app.abbrev);
    IMC_OBS_COUNT("registry.builds");

    std::vector<sim::NodeId> nodes(
        static_cast<std::size_t>(deploy_nodes));
    for (int i = 0; i < deploy_nodes; ++i)
        nodes[static_cast<std::size_t>(i)] = i;

    // 1. Propagation matrix through the selected profiling algorithm.
    ProfileOptions popts;
    popts.hosts = deploy_nodes;
    popts.epsilon = opts_.epsilon;
    CountingMeasure measure(
        make_cluster_measure(app, nodes, cfg_, popts.grid, service_),
        make_cluster_prefetch(app, nodes, cfg_, popts.grid, service_));
    popts.row_tasks = service_.threads();
    const auto profile = run_profiler(
        opts_.algorithm, measure, popts,
        hash_combine(cfg_.seed, hash_string("profiler:" + app.abbrev)));

    // 2. Heterogeneity policy from random measured samples.
    const auto hetero =
        make_cluster_hetero_measure(app, nodes, cfg_, service_);
    const auto fits = evaluate_policies(
        profile.matrix, hetero, deploy_nodes, opts_.policy_samples,
        Rng(hash_combine(cfg_.seed,
                         hash_string("policy:" + app.abbrev))));
    const auto best = best_policy(fits);

    // 3. Bubble score.
    const double score = scorer_.score(app, nodes);

    BuiltModel built{
        InterferenceModel(app.abbrev, profile.matrix, best.policy,
                          score),
        fits, profile.cost(), false};

    if (!path.empty()) {
        // Race-free directory creation (concurrent registries may
        // share a cache dir): losing the creation race is fine as
        // long as the directory exists afterwards.
        const auto dir = std::filesystem::path(path).parent_path();
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(dir, ec);
            require(!ec || std::filesystem::is_directory(dir),
                    "ModelRegistry: cannot create model cache dir '" +
                        dir.string() + "'");
        }
        save_model_file(path, built.model);
    }
    return built;
}

} // namespace imc::core
