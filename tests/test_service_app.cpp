/**
 * @file
 * The open-loop latency-serving workload suite (DESIGN.md §9).
 *
 * Covers the ServiceApp request pipeline end to end: Zipf key
 * sampling (seeded, deterministic, correctly skewed), token-bucket
 * request shedding (conservation: every arrival is either served or
 * dropped; admission bounded by burst + rate * window), tail-latency
 * monotonicity under added contention, request streams pinned to a
 * recorded digest and latencies, and (FaultServe.*, picked up by
 * the chaos and TSan CI jobs) byte-identical trace replays with
 * service apps in the mix across RunService thread counts while
 * sched.admit/sched.evict/run.exec faults are armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bubble/bubble.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/trace.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"
#include "workload/service_app.hpp"

using namespace imc;
using namespace imc::placement;
using namespace imc::sched;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 91;
    return cfg;
}

core::ModelBuildOptions
fast_opts()
{
    core::ModelBuildOptions opts;
    opts.policy_samples = 6;
    return opts;
}

/** Disarm on scope exit so no test leaks an armed schedule. */
struct ArmGuard {
    ArmGuard(std::uint64_t seed, const std::string& spec)
    {
        fault::arm(seed, spec);
    }
    ~ArmGuard() { fault::disarm(); }
    ArmGuard(const ArmGuard&) = delete;
    ArmGuard& operator=(const ArmGuard&) = delete;
};

/** A small, fast service spec for direct driver tests. */
AppSpec
tiny_service()
{
    AppSpec spec = find_app("V.mc");
    spec.serve.duration = 5.0;
    spec.serve.request_rate = 200.0;
    return spec;
}

struct ServeOutcome {
    std::uint64_t arrived = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    std::uint64_t digest = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double finish = 0.0;
};

/** Run @p spec to completion on fresh a simulation. */
ServeOutcome
run_service_app(const AppSpec& spec, double bubble_pressure = 0.0,
                std::uint64_t seed = 5)
{
    sim::Simulation sim(sim::ClusterSpec::private8());
    const std::vector<sim::NodeId> nodes{0, 1};
    if (bubble_pressure > 0.0) {
        for (sim::NodeId n : nodes)
            sim.add_tenant(n, bubble::bubble_demand(bubble_pressure));
    }
    LaunchOptions opts;
    opts.nodes = nodes;
    opts.procs_per_node = 4;
    opts.rng = Rng(seed);
    ServiceApp app(sim, spec, std::move(opts));
    sim.run(10'000'000);
    EXPECT_TRUE(app.done());
    ServeOutcome out;
    out.arrived = app.arrived();
    out.served = app.served();
    out.dropped = app.dropped();
    out.digest = app.request_digest();
    out.p50 = app.latencies().quantile(50.0);
    out.p95 = app.latencies().quantile(95.0);
    out.p99 = app.latencies().quantile(99.0);
    out.finish = app.finish_time();
    return out;
}

} // namespace

// --- Zipf sampler ------------------------------------------------------

TEST(ServiceZipf, SkewConcentratesOnHotKeys)
{
    ZipfSampler zipf(100, 0.99);
    Rng rng(7);
    std::vector<int> counts(100, 0);
    constexpr int kDraws = 20'000;
    for (int i = 0; i < kDraws; ++i)
        ++counts[static_cast<std::size_t>(zipf.sample(rng.uniform()))];
    // H_0.99(100) ~ 5.4, so key 0 takes ~18.5% of the traffic.
    EXPECT_GT(counts[0], kDraws / 7);
    EXPECT_LT(counts[0], kDraws / 4);
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
    // Seeded draws are exactly reproducible.
    Rng rng2(7);
    std::vector<int> counts2(100, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts2[static_cast<std::size_t>(
            zipf.sample(rng2.uniform()))];
    EXPECT_EQ(counts, counts2);
}

TEST(ServiceZipf, ThetaZeroIsUniform)
{
    const ZipfSampler zipf(4, 0.0);
    EXPECT_EQ(zipf.sample(0.0), 0);
    EXPECT_EQ(zipf.sample(0.24), 0);
    EXPECT_EQ(zipf.sample(0.26), 1);
    EXPECT_EQ(zipf.sample(0.51), 2);
    EXPECT_EQ(zipf.sample(0.76), 3);
    EXPECT_EQ(zipf.sample(0.999), 3);
}

TEST(ServiceZipf, SampleIsAPureFunctionOfU)
{
    const ZipfSampler zipf(1024, 0.99);
    EXPECT_EQ(zipf.sample(0.37), zipf.sample(0.37));
    EXPECT_EQ(zipf.num_keys(), 1024);
}

// --- Token bucket + request accounting ---------------------------------

TEST(ServiceApp, EveryArrivalIsServedOrDropped)
{
    const ServeOutcome out = run_service_app(tiny_service());
    EXPECT_GT(out.arrived, 500u);
    EXPECT_EQ(out.arrived, out.served + out.dropped);
    EXPECT_GT(out.served, 0u);
    // The window closed before the queues drained, so the app
    // finishes at or after the configured duration.
    EXPECT_GE(out.finish, 5.0);
}

TEST(ServiceApp, TokenBucketShedsOverRateLoadAndConservesTokens)
{
    AppSpec spec = tiny_service();
    spec.serve.bucket_rate = 2.0;
    spec.serve.bucket_burst = 3.0;
    const ServeOutcome out = run_service_app(spec);
    EXPECT_GT(out.dropped, 0u);
    EXPECT_EQ(out.arrived, out.served + out.dropped);
    // Token conservation: no VM can admit more than its initial burst
    // plus the refill over the arrival window (8 VMs on 2 nodes).
    const double per_vm = spec.serve.bucket_burst +
                          spec.serve.duration * spec.serve.bucket_rate;
    EXPECT_LE(out.served, static_cast<std::uint64_t>(8.0 * per_vm) + 8);
}

// --- Interference shows up in the tail ---------------------------------

TEST(ServiceApp, ContentionRaisesTailLatency)
{
    AppSpec spec = find_app("V.srch");
    spec.serve.duration = 8.0;
    const ServeOutcome quiet = run_service_app(spec);
    const ServeOutcome loaded = run_service_app(spec, /*bubble_pressure=*/5.0);
    // Same seed, same request stream: the only difference is the
    // co-located bubble, which slows every compute and lets queues
    // build — tail first.
    EXPECT_GT(loaded.p99, quiet.p99);
    EXPECT_GT(loaded.p99, loaded.p50);
    EXPECT_GE(quiet.p95, quiet.p50);
}

TEST(ServiceApp, RunnerReportsTailLatencyAsTheMetric)
{
    AppSpec spec = find_app("V.web");
    spec.serve.duration = 5.0;
    RunConfig cfg = fast_cfg();
    const std::vector<sim::NodeId> nodes{0, 1};
    const double solo = run_solo_time(spec, nodes, cfg);
    // The metric is a p99 latency in seconds — on the order of the
    // service time, nowhere near a makespan.
    EXPECT_GT(solo, 0.0);
    EXPECT_LT(solo, 2.0);
    const double norm = run_with_bubbles_norm(
        spec, nodes, std::vector<double>(8, 4.0), cfg);
    EXPECT_GT(norm, 1.0);
}

// --- Determinism -------------------------------------------------------

TEST(ServiceApp, SeedAndScaledEnginesAgreeByteForByte)
{
    // The answer both the seed and the scaled engine gave, recorded
    // when the seed engine was retired.
    const ServeOutcome out = run_service_app(tiny_service());
    EXPECT_EQ(out.arrived, 954u);
    EXPECT_EQ(out.served, 954u);
    EXPECT_EQ(out.dropped, 0u);
    EXPECT_EQ(out.digest, 0x79e45d8660a88573ULL);
    EXPECT_EQ(out.p50, 0x1.670f4f17917d8p-8);
    EXPECT_EQ(out.p95, 0x1.2900afa7834cp-7);
    EXPECT_EQ(out.p99, 0x1.846dcfb73cec5p-7);
    EXPECT_EQ(out.finish, 0x1.405743be971cp+2);
}

TEST(ServiceApp, RequestStreamIsAPureFunctionOfTheLaunch)
{
    const AppSpec spec = tiny_service();
    const ServeOutcome a = run_service_app(spec, 0.0, 11);
    const ServeOutcome b = run_service_app(spec, 0.0, 11);
    EXPECT_EQ(a.digest, b.digest);
    const ServeOutcome c = run_service_app(spec, 0.0, 12);
    EXPECT_NE(a.digest, c.digest);
}

// --- Chaos: service apps through the scheduler pipeline ----------------

TEST(FaultServe, ReplayWithServiceAppsIsByteIdenticalAcrossThreads)
{
    // sched.admit/sched.evict flip scheduler decisions and run.exec
    // perturbs the profiling runs behind the service-app models; all
    // are pure functions of (seed, site, key, attempt), so replays
    // must agree at any RunService thread count.
    ArmGuard guard(
        31, "sched.admit:fail:0.3,sched.evict:fail:0.5,run.exec:slow:0.1");

    TraceGenOptions gopts;
    gopts.num_nodes = 6;
    gopts.slots_per_node = 2;
    gopts.duration = 300.0;
    gopts.arrival_rate = 0.08;
    gopts.mean_lifetime = 90.0;
    gopts.max_units = 2;
    gopts.slo_fraction = 0.5;
    gopts.seed = 13;
    gopts.apps = {find_app("V.mc"), find_app("C.gcc")};
    const Trace trace = generate_trace(gopts);

    std::vector<ReplayResult> results;
    for (const int threads : {1, 4, 8}) {
        RunService service(threads);
        core::ModelRegistry registry(fast_cfg(), fast_opts(),
                                     &service);
        for (int units = 1; units <= gopts.max_units; ++units)
            registry.prefetch(gopts.apps, units);
        ModelEvaluator eval(registry, {});
        ReplayOptions ropts;
        results.push_back(replay(trace, eval, ropts));
    }
    ASSERT_GT(results[0].arrivals, 0);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].admitted, results[0].admitted);
        EXPECT_EQ(results[i].rejected, results[0].rejected);
        EXPECT_EQ(results[i].fault_rejected,
                  results[0].fault_rejected);
        EXPECT_EQ(results[i].evictions, results[0].evictions);
        EXPECT_EQ(results[i].final_apps, results[0].final_apps);
        EXPECT_EQ(results[i].final_total_time,
                  results[0].final_total_time);
        EXPECT_EQ(results[i].final_objective,
                  results[0].final_objective);
    }
}
