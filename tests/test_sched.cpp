/**
 * @file
 * The event-driven incremental scheduler suite (DESIGN.md §8).
 *
 * The load-bearing property: after EVERY event of a randomized trace,
 * the core's incrementally maintained state must equal a from-scratch
 * rebuild — predicted times bit-identical to a fresh evaluator's
 * predict() over the same placement, bookkeeping (loads, id maps)
 * consistent with a recount, and the placement valid, within
 * capacity, and never touching a dead node. Plus: strict trace
 * parsing with an exact serialize round trip, SLO-aware admission and
 * eviction semantics, replay determinism, execute-mode attach/detach
 * against the simulator, and (FaultSched.*, picked up by the chaos
 * and TSan CI jobs) deterministic sched.admit/sched.evict injection
 * with byte-identical replays across RunService thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/obs.hpp"
#include "placement/evaluator.hpp"
#include "sched/replay.hpp"
#include "sched/scheduler.hpp"
#include "sched/trace.hpp"
#include "sim/engine.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"
#include "workload/runner.hpp"

using namespace imc;
using namespace imc::core;
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

ModelBuildOptions
fast_opts()
{
    ModelBuildOptions opts;
    opts.policy_samples = 6;
    return opts;
}

ModelRegistry&
shared_registry()
{
    static RunService service(1);
    static ModelRegistry registry(fast_cfg(), fast_opts(), &service);
    return registry;
}

/** Small archetype pool so tests profile few models. */
std::vector<AppSpec>
small_pool()
{
    return {find_app("C.gcc"), find_app("M.lmps"), find_app("H.KM")};
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

Trace
parse_str(const std::string& text)
{
    std::istringstream is(text);
    return parse_trace(is);
}

/** Free slots summed over live nodes. */
int
free_slots(const SchedulerCore& core)
{
    const Placement& p = core.placement();
    int free = 0;
    for (sim::NodeId n = 0; n < p.num_nodes(); ++n) {
        if (core.node_alive(n))
            free += p.slots_per_node() - core.load_of(n);
    }
    return free;
}

void
apply_event(SchedulerCore& core, const TraceEvent& e)
{
    switch (e.kind) {
      case EventKind::kArrive:
        core.arrive(e.id, find_app(e.app), e.units, e.slo);
        break;
      case EventKind::kDepart:
        core.depart(e.id);
        break;
      case EventKind::kCrash:
        core.crash(e.node);
        break;
      case EventKind::kJoin:
        core.join(e.node);
        break;
    }
}

/**
 * Recount everything the core maintains incrementally and compare:
 * placement validity, per-node load within slots and off dead nodes,
 * load_of bookkeeping, and the id<->index maps.
 */
void
expect_invariants(const SchedulerCore& core, int num_nodes, int slots)
{
    const auto& p = core.placement();
    ASSERT_TRUE(p.valid());
    std::vector<int> load(static_cast<std::size_t>(num_nodes), 0);
    for (int i = 0; i < p.num_instances(); ++i) {
        const int units =
            p.instances()[static_cast<std::size_t>(i)].units;
        for (int u = 0; u < units; ++u) {
            const sim::NodeId n = p.node_of(i, u);
            ASSERT_GE(n, 0);
            ASSERT_LT(n, num_nodes);
            EXPECT_TRUE(core.node_alive(n))
                << "unit on dead node " << n;
            ++load[static_cast<std::size_t>(n)];
        }
    }
    for (int n = 0; n < num_nodes; ++n) {
        EXPECT_LE(load[static_cast<std::size_t>(n)], slots)
            << "node " << n << " over capacity";
        EXPECT_EQ(core.load_of(n), load[static_cast<std::size_t>(n)]);
    }
    for (int i = 0; i < core.num_apps(); ++i)
        EXPECT_EQ(core.index_of(core.id_at(i)), i);
}

/**
 * The incremental-vs-rebuild property: a fresh evaluator over the
 * core's current instance list must predict exactly (bit-identical)
 * the times the core maintained through deltas.
 */
void
expect_matches_rebuild(const SchedulerCore& core)
{
    ModelEvaluator fresh(shared_registry(),
                         core.placement().instances());
    const std::vector<double> expected =
        fresh.predict(core.placement());
    const std::vector<double>& actual = core.times();
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], actual[i]) << "instance " << i;
}

} // namespace

// --- Trace format ------------------------------------------------------

TEST(SchedTrace, SerializeParseRoundTripIsByteExact)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 12;
    gopts.duration = 300.0;
    gopts.arrival_rate = 0.1;
    gopts.mean_lifetime = 80.0;
    gopts.max_units = 3;
    gopts.crash_rate = 0.01;
    gopts.seed = 7;
    const Trace trace = generate_trace(gopts);
    ASSERT_FALSE(trace.events.empty());

    const std::string text = serialize_trace(trace);
    const Trace back = parse_str(text);
    EXPECT_EQ(back.num_nodes, trace.num_nodes);
    EXPECT_EQ(back.slots_per_node, trace.slots_per_node);
    ASSERT_EQ(back.events.size(), trace.events.size());
    // Byte-exact round trip: re-serializing the parse reproduces the
    // original text (times survive via 17 significant digits).
    EXPECT_EQ(serialize_trace(back), text);
}

TEST(SchedTrace, GenerationIsAPureFunctionOfOptions)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 10;
    gopts.duration = 200.0;
    gopts.arrival_rate = 0.1;
    gopts.crash_rate = 0.01;
    gopts.seed = 5;
    const std::string a = serialize_trace(generate_trace(gopts));
    const std::string b = serialize_trace(generate_trace(gopts));
    EXPECT_EQ(a, b);
    gopts.seed = 6;
    EXPECT_NE(serialize_trace(generate_trace(gopts)), a);
}

TEST(SchedTrace, CrashProcessOnlyCrashesLiveNodesAndJoinsDownOnes)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 6;
    gopts.duration = 2000.0;
    gopts.arrival_rate = 0.01;
    gopts.crash_rate = 0.05; // many crash/repair cycles
    gopts.mean_repair = 30.0;
    gopts.seed = 11;
    const Trace trace = generate_trace(gopts);
    std::set<sim::NodeId> down;
    int crashes = 0;
    for (const auto& e : trace.events) {
        if (e.kind == EventKind::kCrash) {
            EXPECT_EQ(down.count(e.node), 0u);
            down.insert(e.node);
            ++crashes;
        } else if (e.kind == EventKind::kJoin) {
            EXPECT_EQ(down.erase(e.node), 1u);
        }
    }
    EXPECT_GT(crashes, 5);
    // Never more than half the cluster down at once (generator rule).
    EXPECT_LE(static_cast<int>(down.size()), gopts.num_nodes / 2);
}

TEST(SchedTrace, StrictParserRejectsMalformedInput)
{
    const std::string ok = "imc-trace v1\n"
                           "cluster 4 2\n"
                           "arrive 1.0 1 C.gcc 2 0\n"
                           "depart 2.0 1\n"
                           "end\n";
    EXPECT_EQ(parse_str(ok).events.size(), 2u);

    EXPECT_THROW(parse_str("imc-trace v2\ncluster 4 2\nend\n"),
                 ConfigError); // bad magic
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\n"),
                 ConfigError); // missing end
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\nend\nextra\n"),
                 ConfigError); // content after end
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2 junk\nend\n"),
                 ConfigError); // trailing garbage
    EXPECT_THROW(
        parse_str("imc-trace v1\ncluster 4 2\n"
                  "arrive 1.0 1 C.gcc 2 0 junk\nend\n"),
        ConfigError); // trailing garbage on an event line
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\nfrobnicate 1 2\n"
                           "end\n"),
                 ConfigError); // unknown keyword
    EXPECT_THROW(
        parse_str("imc-trace v1\ncluster 4 2\n"
                  "arrive 1.0 1 C.gcc 2 0\narrive 2.0 1 C.gcc 1 0\n"
                  "end\n"),
        ConfigError); // duplicate arrive id
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\ndepart 1.0 9\n"
                           "end\n"),
                 ConfigError); // depart of unknown id
    EXPECT_THROW(
        parse_str("imc-trace v1\ncluster 4 2\n"
                  "arrive 2.0 1 C.gcc 1 0\narrive 1.0 2 C.gcc 1 0\n"
                  "end\n"),
        ConfigError); // decreasing times
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\n"
                           "arrive 1.0 1 C.gcc 5 0\nend\n"),
                 ConfigError); // more units than nodes
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\ncrash 1.0 9\n"
                           "end\n"),
                 ConfigError); // node out of range
    EXPECT_THROW(parse_str("imc-trace v1\ncluster 4 2\n"
                           "arrive 1.0 1 X.nope 1 0\nend\n"),
                 ConfigError); // unknown catalog abbreviation
}

// --- SchedulerCore -----------------------------------------------------

TEST(SchedCore, IncrementalStateMatchesRebuildAfterEveryEvent)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 10;
    gopts.slots_per_node = 2;
    gopts.duration = 500.0;
    gopts.arrival_rate = 0.06;
    gopts.mean_lifetime = 150.0;
    gopts.max_units = 2;
    gopts.slo_fraction = 0.4;
    gopts.crash_rate = 0.004;
    gopts.mean_repair = 60.0;
    gopts.seed = 3;
    gopts.apps = small_pool();
    const Trace trace = generate_trace(gopts);
    ASSERT_GT(trace.events.size(), 20u);

    ModelEvaluator eval(shared_registry(), {});
    SchedOptions opts;
    opts.seed = 21;
    SchedulerCore core(eval, gopts.num_nodes, gopts.slots_per_node,
                       opts);
    for (const auto& e : trace.events) {
        apply_event(core, e);
        expect_invariants(core, gopts.num_nodes, gopts.slots_per_node);
        expect_matches_rebuild(core);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(core.events_seen(), 0u);
}

TEST(SchedCore, BestEffortArrivalsRespectCapacityWithoutEvicting)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 2, 2, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");

    EXPECT_TRUE(core.arrive(1, gcc, 2, 0.0).admitted);
    EXPECT_TRUE(core.arrive(2, gcc, 2, 0.0).admitted);
    EXPECT_EQ(free_slots(core), 0);

    // Full cluster: a best-effort arrival never evicts — rejected.
    const Admission adm = core.arrive(3, gcc, 1, 0.0);
    EXPECT_FALSE(adm.admitted);
    EXPECT_TRUE(adm.evicted.empty());
    EXPECT_EQ(core.num_apps(), 2);
    EXPECT_EQ(core.index_of(3), -1);
}

TEST(SchedCore, SloArrivalEvictsBestEffortButNeverSloApps)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 2, 1, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");

    EXPECT_TRUE(core.arrive(1, gcc, 1, 0.0).admitted);
    EXPECT_TRUE(core.arrive(2, gcc, 1, 0.0).admitted);

    // An SLO arrival may kill best-effort work to get in.
    const Admission a4 = core.arrive(4, gcc, 1, 1.5);
    EXPECT_TRUE(a4.admitted);
    ASSERT_EQ(a4.evicted.size(), 1u);
    EXPECT_EQ(core.index_of(a4.evicted[0]), -1);

    const Admission a5 = core.arrive(5, gcc, 1, 1.5);
    EXPECT_TRUE(a5.admitted);
    ASSERT_EQ(a5.evicted.size(), 1u);

    // Only SLO apps remain: the next SLO arrival finds no victims.
    EXPECT_EQ(core.num_apps(), 2);
    const Admission a6 = core.arrive(6, gcc, 1, 1.5);
    EXPECT_FALSE(a6.admitted);
    EXPECT_TRUE(a6.evicted.empty());
    EXPECT_GE(core.index_of(4), 0);
    EXPECT_GE(core.index_of(5), 0);
}

TEST(SchedCore, EvictionCanBeDisabled)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedOptions opts;
    opts.allow_eviction = false;
    SchedulerCore core(eval, 2, 1, opts);
    const AppSpec& gcc = find_app("C.gcc");

    EXPECT_TRUE(core.arrive(1, gcc, 1, 0.0).admitted);
    EXPECT_TRUE(core.arrive(2, gcc, 1, 0.0).admitted);
    const Admission adm = core.arrive(3, gcc, 1, 1.5);
    EXPECT_FALSE(adm.admitted);
    EXPECT_TRUE(adm.evicted.empty());
    EXPECT_EQ(core.num_apps(), 2);
}

TEST(SchedCore, DepartFreesCapacityAndUnknownIdsAreTolerated)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 2, 1, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");

    EXPECT_TRUE(core.arrive(1, gcc, 2, 0.0).admitted);
    EXPECT_FALSE(core.depart(42)); // never arrived: tolerated
    EXPECT_EQ(core.num_apps(), 1);
    EXPECT_TRUE(core.depart(1));
    EXPECT_FALSE(core.depart(1)); // already gone
    EXPECT_EQ(core.num_apps(), 0);
    EXPECT_EQ(free_slots(core), 2);
    EXPECT_TRUE(core.arrive(2, gcc, 2, 0.0).admitted);
}

TEST(SchedCore, CrashMovesUnitsOffDeadNodeAndJoinRevivesIt)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 4, 2, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");
    const AppSpec& km = find_app("H.KM");

    EXPECT_TRUE(core.arrive(1, gcc, 2, 0.0).admitted);
    EXPECT_TRUE(core.arrive(2, km, 2, 0.0).admitted);

    const sim::NodeId dead = core.placement().node_of(0, 0);
    const int displaced = core.load_of(dead);
    ASSERT_GT(displaced, 0);

    const RepairOutcome out = core.crash(dead);
    EXPECT_EQ(out.moved_units, displaced);
    EXPECT_TRUE(out.evicted.empty());
    EXPECT_FALSE(core.node_alive(dead));
    EXPECT_EQ(core.load_of(dead), 0);
    expect_invariants(core, 4, 2);
    expect_matches_rebuild(core);

    // Crashing an already-dead node is a no-op.
    EXPECT_EQ(core.crash(dead).moved_units, 0);

    EXPECT_TRUE(core.join(dead));
    EXPECT_FALSE(core.join(dead)); // already alive
    EXPECT_TRUE(core.node_alive(dead));
    expect_invariants(core, 4, 2);
}

TEST(SchedCore, CrashEvictsBestEffortWhenSurvivorsCannotHoldAll)
{
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 2, 1, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");

    EXPECT_TRUE(core.arrive(1, gcc, 1, 1.5).admitted); // SLO
    EXPECT_TRUE(core.arrive(2, gcc, 1, 0.0).admitted); // best-effort
    const int slo_node = core.placement().node_of(0, 0);

    // The SLO app's node dies; the only free room is the best-effort
    // app's slot, so the displaced SLO unit evicts it.
    const RepairOutcome out = core.crash(slo_node);
    EXPECT_EQ(out.moved_units, 1);
    ASSERT_EQ(out.evicted.size(), 1u);
    EXPECT_EQ(out.evicted[0], 2);
    EXPECT_EQ(core.num_apps(), 1);
    EXPECT_GE(core.index_of(1), 0);
    expect_invariants(core, 2, 1);
}

TEST(SchedCore, CrashDropsDisplacedAppWhenNothingCanMakeRoom)
{
    const AppSpec& gcc = find_app("C.gcc");
    {
        // An SLO app spanning both nodes of a 2x1 cluster loses one:
        // its displaced unit cannot share the survivor with itself,
        // and there is no best-effort app to evict.
        ModelEvaluator eval(shared_registry(), {});
        SchedulerCore core(eval, 2, 1, SchedOptions{});
        ASSERT_TRUE(core.arrive(1, gcc, 2, 1.5).admitted);
        const RepairOutcome out = core.crash(0);
        EXPECT_EQ(out.moved_units, 0);
        EXPECT_EQ(out.evicted, (std::vector<std::int64_t>{1}));
        EXPECT_EQ(core.num_apps(), 0);
        EXPECT_EQ(free_slots(core), 1);
        expect_invariants(core, 2, 1);
    }
    {
        // Eviction off on a full 3x1 cluster: the crashed node's app
        // is dropped and the other two stay where they are.
        ModelEvaluator eval(shared_registry(), {});
        SchedOptions opts;
        opts.allow_eviction = false;
        SchedulerCore core(eval, 3, 1, opts);
        for (std::int64_t id = 1; id <= 3; ++id)
            ASSERT_TRUE(core.arrive(id, gcc, 1, 0.0).admitted);
        const sim::NodeId dead =
            core.placement().node_of(core.index_of(2), 0);
        const RepairOutcome out = core.crash(dead);
        EXPECT_EQ(out.moved_units, 0);
        EXPECT_EQ(out.evicted, (std::vector<std::int64_t>{2}));
        EXPECT_EQ(core.num_apps(), 2);
        EXPECT_EQ(core.index_of(2), -1);
        EXPECT_EQ(free_slots(core), 0);
        expect_invariants(core, 3, 1);
        expect_matches_rebuild(core);
    }
    {
        // Out-of-range nodes are still configuration errors.
        ModelEvaluator eval(shared_registry(), {});
        SchedulerCore core(eval, 3, 1, SchedOptions{});
        EXPECT_THROW(core.crash(3), ConfigError);
        EXPECT_THROW(core.crash(-1), ConfigError);
    }
}

// --- Replay ------------------------------------------------------------

namespace {

/** One generated trace shape and its recorded replay answers. */
struct ReplayPin {
    int num_nodes;
    int slots_per_node;
    int max_units;
    int candidate_nodes;
    double arrival_rate;
    double crash_rate;
    std::uint64_t events;
    int arrivals;
    int admitted;
    int rejected;
    int evictions;
    int crashes;
    int joins;
    int moved_units;
    int final_apps;
    double final_total_time;
    double final_objective;
    /** (sched_total, oracle_total) per oracle sample. */
    std::vector<std::pair<double, double>> oracle;
};

} // namespace

TEST(SchedReplay, ReplayIsDeterministic)
{
    // Two replays of each shape agree, and both equal answers recorded
    // once as constants (hexfloats are exact), so any change to an
    // admission, eviction, repair or polish decision, or to the oracle
    // anneal, fails here. The light shape never evicts; the saturating
    // one rejects, evicts, and crashes nodes of a full cluster (one of
    // its crash repairs has to drop a displaced app). Both rank fewer
    // nodes than they have candidates, so the third shape ranks 24
    // four-slot nodes with 3 candidates: more nodes have room than
    // get scored, and it rejects, evicts, repairs and rejoins too.
    const std::vector<ReplayPin> pins = {
        {8, 2, 2, 16, 0.08, 0.005, 38, 23, 23, 0, 0, 1, 0, 1, 9,
         0x1.9756fd5c0982dp+3, 0x1.9756fd5c0982dp+3,
         {{0x1.9756fd5c0982dp+3, 0x1.96dd30d11da6ep+3}}},
        {8, 2, 2, 16, 0.4, 0.01, 190, 113, 47, 66, 20, 2, 0, 3, 10,
         0x1.9fa049ecc2eacp+3, 0x1.9fa049ecc2eacp+3,
         {{0x1.9fa049ecc2eacp+3, 0x1.9fa049ecc2eacp+3}}},
        {24, 4, 3, 3, 0.6, 0.02, 294, 177, 141, 36, 14, 4, 2, 15, 47,
         0x1.8fe13ea6dcbfcp+6, 0x1.8fe13ea6dcbfcp+6,
         {{0x1.8fe13ea6dcbfcp+6, 0x1.8e385c8a1eb61p+6}}},
    };
    for (const ReplayPin& pin : pins) {
        SCOPED_TRACE("arrival_rate " + std::to_string(pin.arrival_rate));
        TraceGenOptions gopts;
        gopts.num_nodes = pin.num_nodes;
        gopts.slots_per_node = pin.slots_per_node;
        gopts.duration = 300.0;
        gopts.arrival_rate = pin.arrival_rate;
        gopts.mean_lifetime = 100.0;
        gopts.max_units = pin.max_units;
        gopts.crash_rate = pin.crash_rate;
        gopts.seed = 17;
        gopts.apps = small_pool();
        const Trace trace = generate_trace(gopts);

        ReplayOptions ropts;
        ropts.sched.candidate_nodes = pin.candidate_nodes;
        ropts.oracle_iterations = 500;
        ReplayResult first;
        obs::reset();
        obs::set_enabled(true);
        {
            ModelEvaluator eval(shared_registry(), {});
            first = replay(trace, eval, ropts);
        }
        ModelEvaluator eval(shared_registry(), {});
        const ReplayResult second = replay(trace, eval, ropts);
        obs::set_enabled(false);
#ifndef IMC_OBS_DISABLED
        // Some polish proposals are too close for the filter alone, so
        // the pinned answers also cover its full-sum fallback.
        const std::uint64_t proposals =
            obs::counter_value("sched.polish.proposals");
        const std::uint64_t fallbacks =
            obs::counter_value("sched.polish.filter_fallbacks");
        EXPECT_GT(fallbacks, 0u);
        EXPECT_LT(fallbacks, proposals);
#endif
        obs::reset();

        for (const ReplayResult& r : {std::cref(first), std::cref(second)}) {
            EXPECT_EQ(r.events, pin.events);
            EXPECT_EQ(r.arrivals, pin.arrivals);
            EXPECT_EQ(r.admitted, pin.admitted);
            EXPECT_EQ(r.rejected, pin.rejected);
            EXPECT_EQ(r.evictions, pin.evictions);
            EXPECT_EQ(r.crashes, pin.crashes);
            EXPECT_EQ(r.joins, pin.joins);
            EXPECT_EQ(r.moved_units, pin.moved_units);
            EXPECT_EQ(r.final_apps, pin.final_apps);
            EXPECT_EQ(r.final_total_time, pin.final_total_time);
            EXPECT_EQ(r.final_objective, pin.final_objective);
            ASSERT_EQ(r.oracle.size(), pin.oracle.size());
            for (std::size_t i = 0; i < pin.oracle.size(); ++i) {
                EXPECT_EQ(r.oracle[i].sched_total, pin.oracle[i].first);
                EXPECT_EQ(r.oracle[i].oracle_total,
                          pin.oracle[i].second);
            }
        }
    }
}

TEST(SchedReplay, ExecuteModeDrivesTheSimulation)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 6;
    gopts.duration = 120.0;
    gopts.arrival_rate = 0.08;
    gopts.mean_lifetime = 50.0;
    gopts.max_units = 2;
    gopts.crash_rate = 0.0; // execute mode forbids joins
    gopts.seed = 23;
    gopts.apps = small_pool();
    const Trace trace = generate_trace(gopts);
    ASSERT_FALSE(trace.events.empty());

    ModelEvaluator eval(shared_registry(), {});
    ReplayOptions ropts;
    ropts.oracle_iterations = 0;
    ropts.execute = true;
    const ReplayResult r = replay(trace, eval, ropts);
    EXPECT_GT(r.admitted, 0);
    EXPECT_GT(r.exec_events, 0u);
    EXPECT_GE(r.exec_sim_time, trace.events.back().time);
}

// Regression: detaching an executed app must not destroy it while the
// sim queue still holds events capturing it (task-pool shuffle events,
// zero-delay grants, barrier releases) — the executor retires detached
// apps and keeps them alive until the simulation is torn down. A
// churn-heavy task-pool trace used to crash with a use-after-free in
// TaskPool::open_stage when a departed app's shuffle event fired.
TEST(SchedReplay, ExecuteModeSurvivesTaskPoolChurn)
{
    TraceGenOptions gopts;
    gopts.num_nodes = 16;
    gopts.duration = 200.0;
    gopts.arrival_rate = 0.25;
    gopts.mean_lifetime = 20.0;
    gopts.max_units = 3;
    gopts.crash_rate = 0.0;
    gopts.seed = 11;
    gopts.apps = {find_app("H.KM")};
    const Trace trace = generate_trace(gopts);
    ASSERT_FALSE(trace.events.empty());

    ModelEvaluator eval(shared_registry(), {});
    ReplayOptions ropts;
    ropts.oracle_iterations = 0;
    ropts.execute = true;
    const ReplayResult r = replay(trace, eval, ropts);
    EXPECT_GT(r.departures, 0);
    EXPECT_GT(r.exec_events, 0u);
}

TEST(SchedReplay, ExecuteModeRejectsTracesWithJoins)
{
    Trace trace;
    trace.num_nodes = 4;
    TraceEvent crash;
    crash.kind = EventKind::kCrash;
    crash.time = 1.0;
    crash.node = 0;
    TraceEvent join;
    join.kind = EventKind::kJoin;
    join.time = 2.0;
    join.node = 0;
    trace.events = {crash, join};

    ModelEvaluator eval(shared_registry(), {});
    ReplayOptions ropts;
    ropts.oracle_iterations = 0;
    ropts.execute = true;
    EXPECT_THROW(replay(trace, eval, ropts), ConfigError);
}

// --- Simulator attach/detach ------------------------------------------

TEST(SchedExec, DetachWithdrawsAnAppMidRun)
{
    sim::Simulation sim(sim::ClusterSpec::private8());
    bool completed = false;
    LaunchOptions lo;
    lo.nodes = {0, 1};
    lo.rng = Rng(5);
    lo.on_complete = [&completed] { completed = true; };
    auto app = launch(sim, find_app("M.lmps"), std::move(lo));

    // Let it make some progress, then withdraw it mid-flight.
    for (int i = 0; i < 20 && sim.step(); ++i) {
    }
    ASSERT_FALSE(app->done());
    app->detach();
    EXPECT_TRUE(app->detached());

    // The drained simulation terminates and the app never completes.
    while (sim.step()) {
    }
    EXPECT_FALSE(completed);
    EXPECT_FALSE(app->done());
    // Idempotent.
    app->detach();
    EXPECT_TRUE(app->detached());
}

// --- Fault injection (chaos + TSan CI jobs) ---------------------------

TEST(FaultSched, AdmitFaultRejectsArrivalsDeterministically)
{
    ArmGuard guard(9, "sched.admit:fail:1");
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 4, 2, SchedOptions{});
    const Admission adm = core.arrive(1, find_app("C.gcc"), 1, 0.0);
    EXPECT_FALSE(adm.admitted);
    EXPECT_TRUE(adm.fault_rejected);
    EXPECT_EQ(core.num_apps(), 0);
    EXPECT_EQ(free_slots(core), 8);
}

TEST(FaultSched, EvictFaultVetoesVictimsLeavingThemPlaced)
{
    ArmGuard guard(9, "sched.evict:fail:1");
    ModelEvaluator eval(shared_registry(), {});
    SchedulerCore core(eval, 2, 1, SchedOptions{});
    const AppSpec& gcc = find_app("C.gcc");
    EXPECT_TRUE(core.arrive(1, gcc, 1, 0.0).admitted);
    EXPECT_TRUE(core.arrive(2, gcc, 1, 0.0).admitted);

    // Every eviction candidate is vetoed: the SLO arrival cannot make
    // room and is rejected, with both best-effort apps untouched.
    const Admission adm = core.arrive(3, gcc, 1, 1.5);
    EXPECT_FALSE(adm.admitted);
    EXPECT_TRUE(adm.evicted.empty());
    EXPECT_EQ(core.num_apps(), 2);
    EXPECT_GE(core.index_of(1), 0);
    EXPECT_GE(core.index_of(2), 0);
}

TEST(FaultSched, ReplayIsByteIdenticalAcrossThreadCountsUnderFaults)
{
    // Probabilistic admit/evict faults armed: decisions are a pure
    // function of (seed, site, key, attempt), so replays must agree
    // regardless of the RunService thread count used for profiling.
    ArmGuard guard(31, "sched.admit:fail:0.3,sched.evict:fail:0.5");

    TraceGenOptions gopts;
    gopts.num_nodes = 6;
    gopts.slots_per_node = 2;
    gopts.duration = 400.0;
    gopts.arrival_rate = 0.08;
    gopts.mean_lifetime = 90.0;
    gopts.max_units = 2;
    gopts.slo_fraction = 0.5;
    gopts.crash_rate = 0.004;
    gopts.seed = 13;
    gopts.apps = {find_app("C.gcc"), find_app("M.lmps")};
    const Trace trace = generate_trace(gopts);

    std::vector<ReplayResult> results;
    for (const int threads : {1, 4, 8}) {
        RunService service(threads);
        ModelRegistry registry(fast_cfg(), fast_opts(), &service);
        for (int units = 1; units <= gopts.max_units; ++units)
            registry.prefetch(gopts.apps, units);
        ModelEvaluator eval(registry, {});
        ReplayOptions ropts;
        ropts.oracle_iterations = 300;
        results.push_back(replay(trace, eval, ropts));
    }
    ASSERT_GT(results[0].fault_rejected, 0);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].admitted, results[0].admitted);
        EXPECT_EQ(results[i].rejected, results[0].rejected);
        EXPECT_EQ(results[i].fault_rejected, results[0].fault_rejected);
        EXPECT_EQ(results[i].evictions, results[0].evictions);
        EXPECT_EQ(results[i].moved_units, results[0].moved_units);
        EXPECT_EQ(results[i].final_apps, results[0].final_apps);
        EXPECT_EQ(results[i].final_total_time,
                  results[0].final_total_time);
        EXPECT_EQ(results[i].final_objective,
                  results[0].final_objective);
        ASSERT_EQ(results[i].oracle.size(), results[0].oracle.size());
        for (std::size_t k = 0; k < results[0].oracle.size(); ++k)
            EXPECT_EQ(results[i].oracle[k].oracle_total,
                      results[0].oracle[k].oracle_total);
    }
}
