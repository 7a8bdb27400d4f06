/**
 * @file
 * Tests of the RunService measurement backend and the determinism
 * contract of everything layered on top of it: parallel and serial
 * execution must produce bit-identical numbers, because every leaf
 * run derives its randomness from its own request content.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bubble/bubble.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/profilers.hpp"
#include "core/registry.hpp"
#include "core/scorer.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 77;
    return cfg;
}

std::vector<sim::NodeId>
first_nodes(int n)
{
    std::vector<sim::NodeId> nodes;
    for (int i = 0; i < n; ++i)
        nodes.push_back(i);
    return nodes;
}

/** A small mixed batch of app-time and co-run requests. */
std::vector<RunRequest>
sample_requests(const RunConfig& cfg)
{
    const auto& zeus = find_app("M.zeus");
    const auto& km = find_app("H.KM");
    const auto nodes = first_nodes(4);
    std::vector<RunRequest> reqs;
    reqs.push_back(solo_time_request(zeus, nodes, cfg));
    for (int p = 1; p <= 4; ++p) {
        std::vector<ExtraTenant> extra;
        for (int n = 0; n < p; ++n)
            extra.push_back(
                ExtraTenant{n, bubble::bubble_demand(p)});
        reqs.push_back(app_time_request(zeus, nodes, extra, cfg));
    }
    reqs.push_back(corun_time_request(zeus, nodes,
                                      {Deployment{km, nodes}}, cfg));
    return reqs;
}

void
expect_same_matrix(const SensitivityMatrix& a,
                   const SensitivityMatrix& b)
{
    ASSERT_EQ(a.pressure_levels(), b.pressure_levels());
    ASSERT_EQ(a.hosts(), b.hosts());
    for (int p = 1; p <= a.pressure_levels(); ++p) {
        for (int j = 0; j <= a.hosts(); ++j)
            EXPECT_EQ(a.at(p, j), b.at(p, j))
                << "p=" << p << " j=" << j; // bit-identical, not near
    }
}

} // namespace

TEST(CanonicalKey, IdenticalRequestsShareAKey)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);
    for (const auto& req : reqs)
        EXPECT_EQ(canonical_key(req), canonical_key(req));
}

TEST(CanonicalKey, DistinguishesEveryInput)
{
    const auto cfg = fast_cfg();
    const auto& zeus = find_app("M.zeus");
    const auto& km = find_app("H.KM");
    const auto nodes = first_nodes(4);
    const auto base = solo_time_request(zeus, nodes, cfg);

    auto other_app = solo_time_request(km, nodes, cfg);
    EXPECT_NE(canonical_key(base), canonical_key(other_app));

    auto other_nodes = solo_time_request(zeus, first_nodes(3), cfg);
    EXPECT_NE(canonical_key(base), canonical_key(other_nodes));

    auto salted = cfg;
    salted.salt = 1;
    EXPECT_NE(canonical_key(base),
              canonical_key(solo_time_request(zeus, nodes, salted)));

    auto reseeded = cfg;
    reseeded.seed = cfg.seed + 1;
    EXPECT_NE(canonical_key(base),
              canonical_key(solo_time_request(zeus, nodes, reseeded)));

    auto more_reps = cfg;
    more_reps.reps = cfg.reps + 1;
    EXPECT_NE(canonical_key(base),
              canonical_key(solo_time_request(zeus, nodes, more_reps)));

    auto with_extra = base;
    with_extra.extra.push_back(
        ExtraTenant{0, bubble::bubble_demand(2.0)});
    EXPECT_NE(canonical_key(base), canonical_key(with_extra));

    auto corun = corun_time_request(zeus, nodes,
                                    {Deployment{km, nodes}}, cfg);
    EXPECT_NE(canonical_key(base), canonical_key(corun));

    auto short_delay = base;
    short_delay.app.bsp.injections = {BspInjection{0, 1, 0.3}};
    auto long_delay = short_delay;
    long_delay.app.bsp.injections.front().delay = 0.6;
    EXPECT_NE(canonical_key(short_delay), canonical_key(long_delay));
}

TEST(RunService, MatchesDirectExecutionAtAnyThreadCount)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);
    std::vector<double> direct;
    for (const auto& req : reqs)
        direct.push_back(execute_request(req));

    for (int threads : {1, 4}) {
        RunService service(threads);
        const auto got = service.run_all(reqs);
        ASSERT_EQ(got.size(), direct.size()) << threads;
        for (std::size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(got[i], direct[i])
                << "threads=" << threads << " i=" << i;
    }
}

TEST(RunService, RepeatedRequestExecutesOnce)
{
    const auto cfg = fast_cfg();
    const auto req = sample_requests(cfg).front();
    RunService service(4);
    const double first = service.run(req);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(service.run(req), first);
    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, 10u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cache_hits, 9u);
}

TEST(RunService, RunAllDeduplicatesWithinABatch)
{
    const auto cfg = fast_cfg();
    const auto req = sample_requests(cfg).front();
    RunService service(2);
    const std::vector<RunRequest> batch{req, req, req};
    const auto got = service.run_all(batch);
    EXPECT_EQ(got[0], got[1]);
    EXPECT_EQ(got[1], got[2]);
    EXPECT_EQ(service.stats().executed, 1u);
    EXPECT_EQ(service.stats().cache_hits, 2u);
}

TEST(RunService, ZeroThreadsMeansHardwareConcurrency)
{
    RunService service(0);
    EXPECT_GE(service.threads(), 1);
}

TEST(RunService, HandleReadyAndGetAgree)
{
    const auto cfg = fast_cfg();
    const auto req = sample_requests(cfg).front();
    RunService service(1); // inline: ready immediately after submit
    auto handle = service.submit(req);
    EXPECT_TRUE(handle.ready());
    EXPECT_EQ(handle.get(), execute_request(req));
}

TEST(RunService, ConcurrentSubmittersSeeConsistentValues)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);
    std::vector<double> direct;
    for (const auto& req : reqs)
        direct.push_back(execute_request(req));

    RunService service(4);
    constexpr int kSubmitters = 8;
    constexpr int kRounds = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                // Every submitter walks the batch at its own phase.
                const std::size_t i =
                    static_cast<std::size_t>(t + round) % reqs.size();
                if (service.run(reqs[i]) != direct[i])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto& t : submitters)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);

    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kSubmitters * kRounds));
    EXPECT_EQ(stats.executed, reqs.size());
    EXPECT_EQ(stats.submitted, stats.executed + stats.cache_hits);
}

TEST(CountingMeasureThreads, ConcurrentCallsCountEachSettingOnce)
{
    std::atomic<int> inner_calls{0};
    CountingMeasure measure{MeasureFn([&](int p, int j) {
        inner_calls.fetch_add(1);
        return 1.0 + 0.1 * p + 0.01 * j;
    })};
    constexpr int kThreads = 8;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int p = 1; p <= 4; ++p) {
                EXPECT_EQ(measure(p, 0), 1.0); // free by definition
                for (int j = 1; j <= 4; ++j)
                    EXPECT_EQ(measure(p, j), 1.0 + 0.1 * p + 0.01 * j);
            }
        });
    }
    for (auto& t : pool)
        t.join();
    // 4 pressures x 4 settings with j >= 1; j == 0 is free.
    EXPECT_EQ(measure.measured(), 16);
    // Concurrent first callers may race to compute the same setting
    // (both values are identical); the count must still be exact.
    EXPECT_GE(inner_calls.load(), 16);
}

TEST(CountingMeasureThreads, PrefetchDoesNotAffectCostAccounting)
{
    std::vector<CountingMeasure::Setting> prefetched;
    CountingMeasure measure{
        MeasureFn([](int p, int j) { return 1.0 + 0.1 * p * j; }),
        [&](const std::vector<CountingMeasure::Setting>& s) {
            prefetched.insert(prefetched.end(), s.begin(), s.end());
        }};
    measure.prefetch({{1, 0}, {1, 1}, {2, 2}});
    EXPECT_EQ(measure.measured(), 0); // prefetch is only a hint
    // The free j == 0 setting must not reach the hook.
    ASSERT_EQ(prefetched.size(), 2u);
    EXPECT_EQ(prefetched[0], (CountingMeasure::Setting{1, 1}));

    EXPECT_EQ(measure(1, 1), 1.0 + 0.1 * 1 * 1);
    EXPECT_EQ(measure.measured(), 1);
    // Already-measured settings are filtered from later prefetches.
    measure.prefetch({{1, 1}, {3, 1}});
    ASSERT_EQ(prefetched.size(), 3u);
    EXPECT_EQ(prefetched[2], (CountingMeasure::Setting{3, 1}));
}

TEST(ProfilerEquivalence, AllAlgorithmsBitIdenticalSerialVsParallel)
{
    const auto cfg = fast_cfg();
    const auto& app = find_app("M.zeus");
    const auto nodes = first_nodes(4);
    ProfileOptions opts;
    opts.hosts = 4;

    for (const auto algorithm :
         {ProfileAlgorithm::Exhaustive, ProfileAlgorithm::BinaryBrute,
          ProfileAlgorithm::BinaryOptimized,
          ProfileAlgorithm::Random30, ProfileAlgorithm::Random50}) {
        const std::uint64_t seed = hash_combine(
            cfg.seed, hash_string(to_string(algorithm)));

        // Reference: a 1-thread service without the prefetch hook.
        RunService reference(1);
        CountingMeasure serial(
            make_cluster_measure(app, nodes, cfg, opts.grid, reference));
        const auto want = run_profiler(algorithm, serial, opts, seed);

        for (int threads : {1, 4}) {
            RunService service(threads);
            CountingMeasure measure(
                make_cluster_measure(app, nodes, cfg, opts.grid,
                                     service),
                make_cluster_prefetch(app, nodes, cfg, opts.grid,
                                      service));
            ProfileOptions popts = opts;
            popts.row_tasks = threads;
            const auto got =
                run_profiler(algorithm, measure, popts, seed);
            SCOPED_TRACE(to_string(algorithm) + " threads=" +
                         std::to_string(threads));
            expect_same_matrix(got.matrix, want.matrix);
            EXPECT_EQ(got.measured, want.measured);
        }
    }
}

TEST(ProfilerEquivalence, RethrowsTheLowestFailingRowAtAnyRowTaskCount)
{
    // Rows 2 and 5 fail with distinct errors, and row 1 is slow: a
    // worker that starts on row 1 reaches row 5 after another worker
    // has already failed on row 2. The serial loop reports row 2, so
    // every row-task count must too.
    ProfileOptions opts;
    opts.hosts = 4;
    for (const int row_tasks : {1, 2, 4}) {
        opts.row_tasks = row_tasks;
        for (int rep = 0; rep < 10; ++rep) {
            CountingMeasure measure([](int pressure, int nodes) {
                if (pressure == 1 && nodes == 1)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                if (pressure == 2 || pressure == 5)
                    throw ConfigError("row " + std::to_string(pressure) +
                                      " failed");
                return 1.0 + 0.01 * pressure * nodes;
            });
            try {
                profile_exhaustive(measure, opts);
                ADD_FAILURE() << "expected a row error";
            } catch (const ConfigError& e) {
                EXPECT_STREQ(e.what(), "row 2 failed")
                    << "row_tasks=" << row_tasks << " rep=" << rep;
            }
        }
    }
}

TEST(ScorerEquivalence, CalibrationAndScoresBitIdentical)
{
    const auto cfg = fast_cfg();
    const auto nodes = first_nodes(4);
    RunService reference_service(1);
    const BubbleScorer reference(cfg, reference_service);
    for (int threads : {1, 4}) {
        RunService service(threads);
        const BubbleScorer scored(cfg, service);
        ASSERT_EQ(scored.calibration().size(),
                  reference.calibration().size());
        for (std::size_t i = 0; i < reference.calibration().size(); ++i)
            EXPECT_EQ(scored.calibration()[i],
                      reference.calibration()[i]);
        for (const char* abbrev : {"M.zeus", "C.libq", "H.KM"}) {
            const auto& app = find_app(abbrev);
            EXPECT_EQ(scored.score(app, nodes),
                      reference.score(app, nodes))
                << abbrev << " threads=" << threads;
        }
    }
}

TEST(RegistryEquivalence, ModelsBitIdenticalWithAndWithoutService)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 8;

    RunService reference_service(1);
    ModelRegistry reference(cfg, opts, &reference_service);
    const auto& want = reference.model(find_app("M.zeus"), 4);

    for (int threads : {1, 4}) {
        RunService service(threads);
        ModelRegistry registry(cfg, opts, &service);
        const auto& got = registry.model(find_app("M.zeus"), 4);
        SCOPED_TRACE(threads);
        expect_same_matrix(got.model.matrix(), want.model.matrix());
        EXPECT_EQ(got.model.bubble_score(), want.model.bubble_score());
        EXPECT_EQ(got.model.policy(), want.model.policy());
        EXPECT_EQ(got.profile_cost, want.profile_cost);
    }
}

TEST(RegistryEquivalence, PrefetchBuildsTheSameModelsAsSerialCalls)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 6;
    const std::vector<AppSpec> apps{find_app("M.zeus"),
                                    find_app("H.KM"),
                                    find_app("C.libq")};

    RunService reference_service(1);
    ModelRegistry reference(cfg, opts, &reference_service);
    RunService service(4);
    ModelRegistry registry(cfg, opts, &service);
    registry.prefetch(apps, 4);

    for (const auto& app : apps) {
        const auto& want = reference.model(app, 4);
        const auto& got = registry.model(app, 4);
        SCOPED_TRACE(app.abbrev);
        expect_same_matrix(got.model.matrix(), want.model.matrix());
        EXPECT_EQ(got.model.bubble_score(), want.model.bubble_score());
        EXPECT_EQ(got.model.policy(), want.model.policy());
    }
}

TEST(ModelDiskCache, RoundTripsAcrossRegistries)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 8;
    opts.model_cache_dir =
        (std::filesystem::path(testing::TempDir()) /
         "imc_model_cache_roundtrip")
            .string();
    std::filesystem::remove_all(opts.model_cache_dir);

    RunService service(1);
    ModelRegistry first(cfg, opts, &service);
    const auto& built = first.model(find_app("M.zeus"), 4);
    EXPECT_FALSE(built.from_disk_cache);
    EXPECT_FALSE(std::filesystem::is_empty(opts.model_cache_dir));

    ModelRegistry second(cfg, opts, &service);
    const auto& reloaded = second.model(find_app("M.zeus"), 4);
    EXPECT_TRUE(reloaded.from_disk_cache);
    expect_same_matrix(reloaded.model.matrix(), built.model.matrix());
    EXPECT_EQ(reloaded.model.bubble_score(),
              built.model.bubble_score());
    EXPECT_EQ(reloaded.model.policy(), built.model.policy());
    // Loaded models carry no profiling-cost bookkeeping.
    EXPECT_EQ(reloaded.profile_cost, 0.0);
    EXPECT_TRUE(reloaded.policy_fits.empty());

    std::filesystem::remove_all(opts.model_cache_dir);
}

TEST(ModelDiskCache, DifferentConfigurationsDoNotShareEntries)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 8;
    opts.model_cache_dir =
        (std::filesystem::path(testing::TempDir()) /
         "imc_model_cache_config")
            .string();
    std::filesystem::remove_all(opts.model_cache_dir);

    RunService service(1);
    ModelRegistry first(cfg, opts, &service);
    first.model(find_app("M.zeus"), 4);

    // A different seed must profile fresh, not reuse the cached file.
    auto other_cfg = cfg;
    other_cfg.seed = cfg.seed + 1;
    ModelRegistry second(other_cfg, opts, &service);
    EXPECT_FALSE(second.model(find_app("M.zeus"), 4).from_disk_cache);

    std::filesystem::remove_all(opts.model_cache_dir);
}
