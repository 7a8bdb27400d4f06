/**
 * @file
 * Chaos/soak tests of the deterministic fault-injection engine and of
 * every hardened layer above it: the schedule itself (parsing,
 * probe purity, CLI wiring), RunService retry/timeout/backoff, the
 * registry's corrupt-cache quarantine, profiler degradation on
 * permanently failed cells, sim node crashes, scheduler crash repair,
 * and a campaign-level soak asserting that a seeded fault schedule
 * perturbs the figure pipeline *identically* at every thread count —
 * and not at all when the schedule is empty.
 *
 * Own binary: the fault engine (like imc::obs) is process-global
 * state, and these tests arm/disarm it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bubble/bubble.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "core/measure.hpp"
#include "core/profilers.hpp"
#include "core/registry.hpp"
#include "placement/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/wave.hpp"
#include "workload/catalog.hpp"
#include "workload/delaywave.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::placement;
using namespace imc::workload;

namespace {

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

Cli
make_cli(std::initializer_list<const char*> args)
{
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Cli(static_cast<int>(argv.size()), argv.data(),
               {"fault-seed", "fault-spec", "reps"});
}

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

/**
 * Run a batch through a service, recording each request's outcome as
 * either its value or the failure marker — so batches whose schedule
 * permanently fails some requests still compare exactly.
 */
std::vector<std::string>
outcomes_of(RunService& service, const std::vector<RunRequest>& reqs)
{
    std::vector<RunService::Handle> handles;
    for (const auto& req : reqs)
        handles.push_back(service.submit(req));
    std::vector<std::string> out;
    for (const auto& handle : handles) {
        try {
            const double v = handle.get();
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            out.emplace_back(buf);
        } catch (const MeasurementFailed&) {
            out.emplace_back("FAILED");
        }
    }
    return out;
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

void
expect_finite_matrix(const SensitivityMatrix& m)
{
    for (int p = 1; p <= m.pressure_levels(); ++p) {
        for (int j = 0; j <= m.hosts(); ++j)
            EXPECT_TRUE(std::isfinite(m.at(p, j)))
                << "p=" << p << " j=" << j;
    }
}

} // namespace

// ---------------------------------------------------------------------
// The schedule itself: parsing, probe purity, counters, CLI wiring.
// ---------------------------------------------------------------------

TEST(FaultSchedule, DisarmedByDefaultAndProbesClean)
{
    EXPECT_FALSE(fault::armed());
    EXPECT_TRUE(IMC_FAULT_PROBE("run.exec", "k", 0).clean());
}

TEST(FaultSchedule, CertainClauseAlwaysFiresOnItsSiteOnly)
{
    const ArmGuard guard(1, "run.exec:fail:1");
    EXPECT_TRUE(fault::armed());
    EXPECT_TRUE(fault::probe("run.exec", "k", 0).fail);
    EXPECT_TRUE(fault::probe("run.exec", "other", 3).fail);
    EXPECT_TRUE(fault::probe("registry.cache.load", "k", 0).clean());
}

TEST(FaultSchedule, WildcardSiteMatchesEverySite)
{
    const ArmGuard guard(1, "*:fail:1");
    EXPECT_TRUE(fault::probe("run.exec", "k", 0).fail);
    EXPECT_TRUE(fault::probe("sim.crash", "s#0", 0).crash ||
                fault::probe("sim.crash", "s#0", 0).fail);
}

TEST(FaultSchedule, ZeroProbabilityNeverFires)
{
    const ArmGuard guard(1, "*:fail:0,*:slow:0:5,*:corrupt:0,*:crash:0");
    for (int k = 0; k < 100; ++k)
        EXPECT_TRUE(
            fault::probe("run.exec", std::to_string(k), 0).clean());
    EXPECT_EQ(fault::injected_count(), 0u);
}

TEST(FaultSchedule, ProbeIsPureInSeedSiteKeyAttempt)
{
    std::vector<fault::Outcome> first;
    {
        const ArmGuard guard(9, "run.exec:fail:0.5,run.exec:slow:0.3:8");
        for (int k = 0; k < 50; ++k)
            for (std::uint64_t a = 0; a < 3; ++a)
                first.push_back(
                    fault::probe("run.exec", std::to_string(k), a));
    }
    // Re-armed with the same seed/spec: identical decisions, in any
    // probe order.
    const ArmGuard guard(9, "run.exec:fail:0.5,run.exec:slow:0.3:8");
    std::size_t i = 0;
    bool fired = false, differed_by_attempt = false;
    for (int k = 0; k < 50; ++k) {
        for (std::uint64_t a = 0; a < 3; ++a, ++i) {
            const auto again =
                fault::probe("run.exec", std::to_string(k), a);
            EXPECT_EQ(again.fail, first[i].fail);
            EXPECT_EQ(again.delay_ms, first[i].delay_ms);
            fired |= !again.clean();
            if (a > 0 &&
                again.fail != fault::probe("run.exec",
                                           std::to_string(k), 0)
                                  .fail)
                differed_by_attempt = true;
        }
    }
    EXPECT_TRUE(fired);              // p=0.5 over 150 draws
    EXPECT_TRUE(differed_by_attempt); // retries re-roll
}

TEST(FaultSchedule, DifferentSeedsGiveDifferentSchedules)
{
    std::vector<bool> a, b;
    {
        const ArmGuard guard(1, "run.exec:fail:0.5");
        for (int k = 0; k < 64; ++k)
            a.push_back(
                fault::probe("run.exec", std::to_string(k), 0).fail);
    }
    {
        const ArmGuard guard(2, "run.exec:fail:0.5");
        for (int k = 0; k < 64; ++k)
            b.push_back(
                fault::probe("run.exec", std::to_string(k), 0).fail);
    }
    EXPECT_NE(a, b);
}

TEST(FaultSchedule, SlowParamAndDefaultAndMaxOfFiredClauses)
{
    {
        const ArmGuard guard(1, "run.exec:slow:1:7.5");
        EXPECT_EQ(fault::probe("run.exec", "k", 0).delay_ms, 7.5);
    }
    {
        const ArmGuard guard(1, "run.exec:slow:1"); // default 50 ms
        EXPECT_EQ(fault::probe("run.exec", "k", 0).delay_ms, 50.0);
    }
    {
        const ArmGuard guard(1, "run.exec:slow:1:3,run.exec:slow:1:9");
        EXPECT_EQ(fault::probe("run.exec", "k", 0).delay_ms, 9.0);
    }
}

TEST(FaultSchedule, MalformedSpecsRejected)
{
    for (const char* bad :
         {"run.exec:fail",          // missing probability
          "run.exec:fail:1.5",      // probability > 1
          "run.exec:fail:-0.1",     // probability < 0
          "run.exec:fail:abc",      // non-numeric probability
          "run.exec:explode:0.5",   // unknown kind
          "Run.Exec:fail:0.5",      // uppercase site
          "run exec:fail:0.5",      // space in site
          "run.exec:slow:0.5:-1",   // negative param
          "run.exec:fail:0.5:1:2",  // too many fields
          ":::"}) {
        EXPECT_THROW(fault::arm(1, bad), ConfigError) << bad;
        EXPECT_FALSE(fault::armed()) << bad; // failed arm stays clean
    }
}

TEST(FaultSchedule, EmptyClausesSkippedLikeCliLists)
{
    const ArmGuard guard(1, ",run.exec:fail:1,,");
    EXPECT_TRUE(fault::probe("run.exec", "k", 0).fail);
}

TEST(FaultSchedule, EmptySpecArmsButInjectsNothing)
{
    const ArmGuard guard(7, "");
    EXPECT_TRUE(fault::armed());
    for (int k = 0; k < 20; ++k)
        EXPECT_TRUE(
            fault::probe("run.exec", std::to_string(k), 0).clean());
    EXPECT_EQ(fault::injected_count(), 0u);
}

TEST(FaultSchedule, InjectedCountResetsOnArmAndCountsFires)
{
    const ArmGuard guard(1, "run.exec:fail:1");
    EXPECT_EQ(fault::injected_count(), 0u);
    fault::probe("run.exec", "a", 0);
    fault::probe("run.exec", "b", 0);
    EXPECT_EQ(fault::injected_count(), 2u);
    fault::arm(1, "run.exec:fail:1"); // re-arm resets
    EXPECT_EQ(fault::injected_count(), 0u);
}

TEST(FaultSchedule, SessionArmsFromCliAndDisarmsAtScopeExit)
{
    {
        const Cli cli = make_cli(
            {"--fault-seed", "7", "--fault-spec", "run.exec:fail:1"});
        const fault::Session session(cli);
        EXPECT_TRUE(fault::armed());
        EXPECT_TRUE(fault::probe("run.exec", "k", 0).fail);
    }
    EXPECT_FALSE(fault::armed());
    {
        // --fault-spec alone arms with seed 0.
        const fault::Session session(
            make_cli({"--fault-spec", "run.exec:fail:1"}));
        EXPECT_TRUE(fault::armed());
    }
    EXPECT_FALSE(fault::armed());
    {
        const fault::Session session(make_cli({"--reps", "3"}));
        EXPECT_FALSE(fault::armed()); // neither flag: inert
    }
}

// ---------------------------------------------------------------------
// RunService hardening: retry, timeout, backoff, failure caching.
// ---------------------------------------------------------------------

TEST(FaultRunService, RetriesMaskTransientFailures)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);
    std::vector<double> direct;
    for (const auto& req : reqs)
        direct.push_back(execute_request(req));

    // p(permanent) = 0.3^3 per request: this seed masks every fault.
    const ArmGuard guard(1, "run.exec:fail:0.3");
    RunService service(1);
    const auto got = service.run_all(reqs);
    ASSERT_EQ(got.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(got[i], direct[i]) << i; // bit-identical despite faults
    const auto stats = service.stats();
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(FaultRunService, ExhaustedAttemptsFailAndCacheTheFailure)
{
    const auto cfg = fast_cfg();
    const auto req = sample_requests(cfg).front();
    const ArmGuard guard(1, "run.exec:fail:1");
    RunService service(1);
    EXPECT_THROW(service.run(req), MeasurementFailed);
    // The failure single-flights into the cache like any result.
    EXPECT_THROW(service.run(req), MeasurementFailed);
    const auto stats = service.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 2u); // attempts 1 and 2
}

TEST(FaultRunService, HungScheduleCannotHangTheService)
{
    const auto cfg = fast_cfg();
    const auto req = sample_requests(cfg).front();
    // Every attempt injects a ~17-minute delay; the deadline must cut
    // it off without serving it.
    const ArmGuard guard(1, "run.exec:slow:1:1000000");
    RunService service(1);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(service.run(req), MeasurementFailed);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                  .count(),
              30);
    const auto stats = service.stats();
    EXPECT_EQ(stats.timeouts, 3u); // one per attempt
    EXPECT_EQ(stats.failed, 1u);
}

TEST(FaultRunService, SubDeadlineDelaysPreserveValues)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);
    std::vector<double> direct;
    for (const auto& req : reqs)
        direct.push_back(execute_request(req));

    const ArmGuard guard(3, "run.exec:slow:0.5:2");
    RunService service(2);
    const auto got = service.run_all(reqs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(got[i], direct[i]) << i;
    EXPECT_EQ(service.stats().timeouts, 0u);
    EXPECT_EQ(service.stats().failed, 0u);
}

TEST(FaultRunService, OutcomesAndStatsIdenticalAcrossThreadCounts)
{
    const auto cfg = fast_cfg();
    const auto reqs = sample_requests(cfg);

    std::vector<std::string> want;
    std::uint64_t want_retries = 0, want_failed = 0;
    for (const int threads : {1, 4, 8}) {
        // Three attempts at p=0.6: some faults retry away, some turn
        // permanent, so both outcome branches (value and failure)
        // must agree across thread counts.
        const ArmGuard guard(21, "run.exec:fail:0.6");
        RunService service(threads);
        const auto got = outcomes_of(service, reqs);
        const auto stats = service.stats();
        if (threads == 1) {
            want = got;
            want_retries = stats.retries;
            want_failed = stats.failed;
            // Both branches must occur for this seed.
            EXPECT_GT(want_failed, 0u);
            EXPECT_LT(want_failed, reqs.size());
        } else {
            EXPECT_EQ(got, want) << "threads=" << threads;
            EXPECT_EQ(stats.retries, want_retries)
                << "threads=" << threads;
            EXPECT_EQ(stats.failed, want_failed)
                << "threads=" << threads;
        }
    }
}

TEST(FaultRunService, OptionsValidated)
{
    EXPECT_THROW(RunService bad(-1), ConfigError);
}

// ---------------------------------------------------------------------
// Profiler degradation: permanently failed cells fill by interpolation.
// ---------------------------------------------------------------------

TEST(FaultProfiler, DegradedCellsFilledFiniteAndThreadInvariant)
{
    const auto cfg = fast_cfg();
    const auto& app = find_app("M.zeus");
    const auto nodes = first_nodes(4);
    ProfileOptions popts;
    popts.hosts = 4;

    for (const auto algorithm :
         {ProfileAlgorithm::Exhaustive, ProfileAlgorithm::BinaryBrute,
          ProfileAlgorithm::BinaryOptimized,
          ProfileAlgorithm::Random50}) {
        const std::uint64_t seed = hash_combine(
            cfg.seed, hash_string(to_string(algorithm)));
        std::optional<ProfileResult> want;
        for (const int threads : {1, 4}) {
            // Three attempts at p=0.7: a cell fails for good with
            // probability 0.7^3 ~ 0.34.
            const ArmGuard guard(5, "run.exec:fail:0.7");
            RunService service(threads);
            CountingMeasure measure(
                make_cluster_measure(app, nodes, cfg, popts.grid,
                                     service),
                make_cluster_prefetch(app, nodes, cfg, popts.grid,
                                      service));
            const auto got =
                run_profiler(algorithm, measure, popts, seed);
            SCOPED_TRACE(to_string(algorithm) + " threads=" +
                         std::to_string(threads));
            expect_finite_matrix(got.matrix);
            if (!want) {
                want = got;
                EXPECT_GT(got.degraded_cells, 0); // schedule must bite
            } else {
                expect_same_matrix(got.matrix, want->matrix);
                EXPECT_EQ(got.measured, want->measured);
                EXPECT_EQ(got.degraded_cells, want->degraded_cells);
            }
        }
    }
}

TEST(FaultProfiler, NoScheduleMeansNoDegradedCells)
{
    const auto cfg = fast_cfg();
    const auto& app = find_app("M.zeus");
    const auto nodes = first_nodes(4);
    ProfileOptions popts;
    popts.hosts = 4;
    RunService service(1);
    CountingMeasure measure(
        make_cluster_measure(app, nodes, cfg, popts.grid, service));
    const auto got = run_profiler(ProfileAlgorithm::BinaryBrute,
                                  measure, popts, cfg.seed);
    EXPECT_EQ(got.degraded_cells, 0);
}

// ---------------------------------------------------------------------
// Registry: corrupt disk-cache entries quarantine and rebuild.
// ---------------------------------------------------------------------

namespace {

/** Count cache-dir entries whose filename contains @p needle. */
int
entries_containing(const std::string& dir, const std::string& needle)
{
    int n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(needle) !=
            std::string::npos)
            ++n;
    }
    return n;
}

} // namespace

TEST(FaultRegistry, GarbageCacheEntryQuarantinedAndRebuilt)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 6;
    opts.model_cache_dir =
        (std::filesystem::path(testing::TempDir()) /
         "imc_fault_cache_garbage")
            .string();
    std::filesystem::remove_all(opts.model_cache_dir);

    // Each registry measures through its own service, so a rebuild
    // really re-runs the cluster jobs.
    RunService first_service(1);
    ModelRegistry first(cfg, opts, &first_service);
    const auto& built = first.model(find_app("M.zeus"), 4);
    EXPECT_EQ(first.quarantined_count(), 0u);

    // Smash every cached entry with junk that cannot parse.
    for (const auto& entry : std::filesystem::directory_iterator(
             opts.model_cache_dir)) {
        std::filesystem::resize_file(entry.path(), 0);
    }

    RunService second_service(1);
    ModelRegistry second(cfg, opts, &second_service);
    const auto& rebuilt = second.model(find_app("M.zeus"), 4);
    EXPECT_EQ(second.quarantined_count(), 1u);
    EXPECT_FALSE(rebuilt.from_disk_cache);
    expect_same_matrix(rebuilt.model.matrix(), built.model.matrix());
    EXPECT_EQ(rebuilt.model.bubble_score(),
              built.model.bubble_score());
    // The bad entry was moved aside, a fresh one written, and the
    // atomic-write temp files all cleaned up.
    EXPECT_EQ(entries_containing(opts.model_cache_dir, ".quarantined"),
              1);
    EXPECT_EQ(entries_containing(opts.model_cache_dir, ".tmp."), 0);

    // The quarantined entry does not shadow the fresh one.
    RunService third_service(1);
    ModelRegistry third(cfg, opts, &third_service);
    EXPECT_TRUE(third.model(find_app("M.zeus"), 4).from_disk_cache);
    EXPECT_EQ(third.quarantined_count(), 0u);

    std::filesystem::remove_all(opts.model_cache_dir);
}

TEST(FaultRegistry, InjectedCorruptionQuarantinesAndRebuilds)
{
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 6;
    opts.model_cache_dir =
        (std::filesystem::path(testing::TempDir()) /
         "imc_fault_cache_injected")
            .string();
    std::filesystem::remove_all(opts.model_cache_dir);

    RunService first_service(1);
    ModelRegistry first(cfg, opts, &first_service);
    const auto& built = first.model(find_app("M.zeus"), 4);

    // The probe is keyed by the entry's *filename*, so "*" keeps this
    // independent of the temp-dir layout.
    const ArmGuard guard(1, "registry.cache.load:corrupt:1");
    RunService second_service(1);
    ModelRegistry second(cfg, opts, &second_service);
    const auto& rebuilt = second.model(find_app("M.zeus"), 4);
    EXPECT_EQ(second.quarantined_count(), 1u);
    EXPECT_FALSE(rebuilt.from_disk_cache);
    expect_same_matrix(rebuilt.model.matrix(), built.model.matrix());

    std::filesystem::remove_all(opts.model_cache_dir);
}

// ---------------------------------------------------------------------
// Sim node crashes and crash repair.
// ---------------------------------------------------------------------

namespace {

sim::TenantDemand
light_demand()
{
    sim::TenantDemand d;
    d.gen_mb = 1.0;
    d.need_mb = 1.0;
    d.bw_gbps = 0.5;
    d.mem_intensity = 0.5;
    return d;
}

} // namespace

TEST(FaultCrash, MidRunCrashDropsVictimAndSparesSurvivors)
{
    sim::ClusterSpec spec = sim::ClusterSpec::private8();
    spec.num_nodes = 2;
    sim::Simulation sim(spec);
    const sim::TenantId victim = sim.add_tenant(0, light_demand());
    const sim::TenantId survivor = sim.add_tenant(1, light_demand());
    const sim::ProcId vp = sim.add_proc(victim);
    const sim::ProcId sp = sim.add_proc(survivor);
    bool victim_done = false, survivor_done = false;
    sim.compute(vp, 10.0, [&] { victim_done = true; });
    sim.compute(sp, 10.0, [&] { survivor_done = true; });
    sim.schedule(2.0, [&] { sim.crash_node(0); });
    sim.run();

    EXPECT_FALSE(victim_done); // in-flight work lost with the node
    EXPECT_TRUE(survivor_done);
    EXPECT_TRUE(sim.node_crashed(0));
    EXPECT_FALSE(sim.node_crashed(1));
    EXPECT_EQ(sim.tenants_on(0), 0);
    EXPECT_EQ(sim.stats().node_crashes, 1u);
    // A crashed node refuses new tenants; crashing twice is a no-op.
    EXPECT_THROW(sim.add_tenant(0, light_demand()), ConfigError);
    sim.crash_node(0);
    EXPECT_EQ(sim.stats().node_crashes, 1u);
}

// ---------------------------------------------------------------------
// 1k-node crash-repair chaos: a --fault-spec sim.crash:crash:0.05
// schedule dooms ~5% of a 1000-node cluster; the engine absorbs the
// mid-run crash wave dropping exactly the victims' work, and the
// scheduler's crash repair moves every displaced unit off the dead
// nodes — with an outcome that is byte-identical whether the models
// behind the evaluator were measured with 1, 4, or 8 worker threads.
// ---------------------------------------------------------------------

namespace {

/**
 * The nodes an armed schedule dooms for @p scenario: site "sim.crash"
 * probed once per node with key "<scenario>#<node>".
 */
std::vector<sim::NodeId>
scheduled_crashes(const std::string& scenario, int num_nodes)
{
    std::vector<sim::NodeId> doomed;
    for (sim::NodeId node = 0; node < num_nodes; ++node) {
        const std::string key = scenario + "#" + std::to_string(node);
        if (fault::probe("sim.crash", key, 0).crash)
            doomed.push_back(node);
    }
    return doomed;
}

/** A repaired scheduler state flattened for exact comparison. */
struct RepairFingerprint {
    std::vector<sim::NodeId> nodes;
    int moved_units = 0;
    double total_time = 0.0;

    bool operator==(const RepairFingerprint&) const = default;
};

} // namespace

TEST(FaultCrash, ThousandNodeChaosRecoveryIsThreadInvariant)
{
    constexpr int kNodes = 1000;
    const ArmGuard guard(2026, "sim.crash:crash:0.05");
    const std::vector<sim::NodeId> dead =
        scheduled_crashes("scale1k", kNodes);
    ASSERT_FALSE(dead.empty());
    // ~5% of 1000 doomed: a loose band that still catches a broken
    // schedule (all-dead, none-dead, wrong probability).
    EXPECT_GT(dead.size(), 20u);
    EXPECT_LT(dead.size(), 100u);
    std::vector<bool> is_dead(kNodes, false);
    for (const sim::NodeId node : dead)
        is_dead[static_cast<std::size_t>(node)] = true;

    // Phase 1: the engine takes the crash wave mid-run. Every node
    // hosts one computing tenant; exactly the victims' work is lost
    // and every victim ends empty.
    sim::Simulation simulation(sim::ClusterSpec::scaled(kNodes));
    int completions = 0;
    for (int node = 0; node < kNodes; ++node) {
        const sim::TenantId tenant =
            simulation.add_tenant(node, light_demand());
        simulation.compute(simulation.add_proc(tenant), 10.0,
                           [&] { ++completions; });
    }
    for (std::size_t i = 0; i < dead.size(); ++i) {
        const sim::NodeId victim = dead[i];
        simulation.schedule(
            0.5 + 0.01 * static_cast<double>(i),
            [&simulation, victim] { simulation.crash_node(victim); });
    }
    simulation.run();
    EXPECT_EQ(simulation.stats().node_crashes, dead.size());
    EXPECT_EQ(completions, kNodes - static_cast<int>(dead.size()));
    for (const sim::NodeId node : dead) {
        EXPECT_TRUE(simulation.node_crashed(node));
        EXPECT_EQ(simulation.tenants_on(node), 0);
    }

    // Phase 2: a scheduler admits 600 three-unit apps onto the 1000
    // nodes (2 slots each), then takes every doomed node down. The
    // survivors' slots absorb the loss, so crash repair moves every
    // displaced unit and evicts nothing.
    constexpr int kApps = 600;
    std::optional<RepairFingerprint> want;
    for (const int threads : {1, 4, 8}) {
        SCOPED_TRACE(threads);
        RunService service(threads);
        ModelRegistry registry(fast_cfg(),
                               [] {
                                   ModelBuildOptions opts;
                                   opts.policy_samples = 6;
                                   return opts;
                               }(),
                               &service);
        ModelEvaluator eval(registry, {});
        sched::SchedulerCore core(eval, kNodes, 2, sched::SchedOptions{});
        for (int i = 0; i < kApps; ++i)
            ASSERT_TRUE(core.arrive(i,
                                    i % 2 == 0 ? find_app("M.milc")
                                               : find_app("C.libq"),
                                    3, 0.0)
                            .admitted);

        RepairFingerprint fp;
        for (const sim::NodeId node : dead) {
            const sched::RepairOutcome out = core.crash(node);
            EXPECT_TRUE(out.evicted.empty()) << "node " << node;
            fp.moved_units += out.moved_units;
        }
        EXPECT_GT(fp.moved_units, 0);

        const Placement& placement = core.placement();
        ASSERT_EQ(placement.num_instances(), kApps);
        for (int i = 0; i < kApps; ++i) {
            for (int u = 0; u < 3; ++u) {
                const sim::NodeId node = placement.node_of(i, u);
                EXPECT_FALSE(is_dead[static_cast<std::size_t>(node)])
                    << "i=" << i << " u=" << u;
                fp.nodes.push_back(node);
            }
        }
        fp.total_time = core.total_time();
        if (!want)
            want = fp;
        else
            EXPECT_TRUE(fp == *want);
    }
}

// ---------------------------------------------------------------------
// Campaign-level chaos soak: the fig06/fig07/table3 pipeline under a
// seeded schedule is identical at every thread count, and an empty
// schedule leaves it byte-identical to the unfaulted run.
// ---------------------------------------------------------------------

namespace {

std::vector<benchutil::AlgoOutcome>
campaign_under(const workload::AppSpec& app, int threads)
{
    RunService service(threads);
    return benchutil::profiling_campaign(app, fast_cfg(), 0.05,
                                         service);
}

void
expect_same_outcomes(const std::vector<benchutil::AlgoOutcome>& a,
                     const std::vector<benchutil::AlgoOutcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].algorithm, b[i].algorithm) << i;
        EXPECT_EQ(a[i].cost_pct, b[i].cost_pct) << i;
        EXPECT_EQ(a[i].error_pct, b[i].error_pct) << i;
    }
}

} // namespace

TEST(FaultChaos, CampaignIdenticalAcrossThreadsUnderFaults)
{
    const auto& app = find_app("M.milc");
    std::vector<benchutil::AlgoOutcome> want;
    for (const int threads : {1, 4, 8}) {
        const ArmGuard guard(
            7, "run.exec:fail:0.3,run.exec:slow:0.05:2");
        const auto got = campaign_under(app, threads);
        if (threads == 1) {
            want = got;
            EXPECT_GT(fault::injected_count(), 0u);
        } else {
            SCOPED_TRACE(threads);
            expect_same_outcomes(got, want);
        }
    }
}

TEST(FaultChaos, EmptyScheduleLeavesCampaignIdenticalToUnfaulted)
{
    const auto& app = find_app("M.Gems");
    const auto unfaulted = campaign_under(app, 4);
    {
        const ArmGuard guard(7, ""); // armed, nothing scheduled
        expect_same_outcomes(campaign_under(app, 4), unfaulted);
    }
    // And the armed run must not leave state behind.
    expect_same_outcomes(campaign_under(app, 4), unfaulted);
}

TEST(FaultDelaywave, CrashedNodesDegradeToAbsentRanksAndFitConverges)
{
    // The fig_delaywave scenario under a chaos schedule: the
    // scenario's own 0.4 s injection drives the wave, a crash clause
    // takes one node down mid-run (seed 1 -> exactly one of 24), and
    // an inert run.exec clause leads the spec, keeping sim.crash at
    // clause index 1, which its rolls hash. The capture must degrade
    // gracefully — crashed ranks marked absent, survivors starved at
    // their next sync rather than wedged — and the wave fit must
    // still converge on the surviving contiguous ranks.
    workload::delaywave::Scenario s;
    s.nodes = 24;
    s.procs_per_node = 4;
    s.iterations = 120;
    s.noise_sigma = 0.0;
    s.injections = {workload::BspInjection{48, 4, 0.4}};
    workload::delaywave::Scenario base = s;
    base.injections.clear();

    const std::string spec = "run.exec:fail:0.2,sim.crash:crash:0.15";
    const auto run = [&](const workload::delaywave::Scenario& sc) {
        const ArmGuard guard(1, spec);
        return workload::delaywave::capture(sc);
    };
    const auto baseline = run(base);
    const auto injected = run(s);

    EXPECT_EQ(injected.crashed_ranks, 4);
    EXPECT_FALSE(injected.finished);
    int absent = 0;
    for (int r = 0; r < injected.timeline.ranks(); ++r)
        if (injected.timeline.absent(r))
            ++absent;
    EXPECT_EQ(absent, injected.crashed_ranks);

    const auto obs = sim::wave::extract_fronts(
        injected.timeline, baseline.timeline, 48, 4, 0.2);
    for (const auto& f : obs.fronts)
        EXPECT_FALSE(injected.timeline.absent(f.rank));
    const auto fit = sim::wave::fit_wave(obs);
    ASSERT_TRUE(fit.converged);
    // The run is silent, so the surviving ranks still obey the exact
    // one-hop-per-iteration law.
    EXPECT_NEAR(fit.ranks_per_iter, 1.0, 1e-9);
    EXPECT_NEAR(fit.amplitude0, 0.4, 1e-9);
}

TEST(FaultDelaywave, CrashingCaptureIsDeterministic)
{
    workload::delaywave::Scenario s;
    s.nodes = 24;
    s.procs_per_node = 4;
    s.iterations = 120;
    s.noise_sigma = 0.1;
    s.injections = {workload::BspInjection{48, 4, 0.4}};
    // run.exec leads so sim.crash keeps clause index 1 (see above).
    const std::string spec = "run.exec:fail:0.2,sim.crash:crash:0.15";
    const auto once = [&] {
        const ArmGuard guard(1, spec);
        return workload::delaywave::capture(s);
    };
    const auto a = once();
    const auto b = once();
    EXPECT_GT(a.crashed_ranks, 0);
    EXPECT_EQ(a.crashed_ranks, b.crashed_ranks);
    EXPECT_EQ(a.timeline.canonical_bytes(), b.timeline.canonical_bytes());
}

TEST(FaultDelaywave, RankReleasedAfterItsNodeCrashedStops)
{
    // EXPERIMENTS.md's chaos recipe: seed 1 crashes 6 of the 24 nodes
    // mid-run, node 6 (ranks 24-27) among them. With rank 24 delayed,
    // a neighbor sync still releases ranks of the crashed node; each
    // must stop instead of reading its dead tenant, which used to end
    // the run with "tenant removed".
    workload::delaywave::Scenario s;
    s.nodes = 24;
    s.procs_per_node = 4;
    s.iterations = 120;
    s.injections = {workload::BspInjection{24, 4, 0.3}};
    const ArmGuard guard(1, "sim.crash:crash:0.15");
    workload::delaywave::Capture cap;
    ASSERT_NO_THROW(cap = workload::delaywave::capture(s));
    EXPECT_EQ(cap.crashed_ranks, 24);
    EXPECT_FALSE(cap.finished);
}
