/**
 * @file
 * Unit tests of the simulation engine: tenants, procs, and the
 * mid-computation rescheduling that makes interference time-varying.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "sim/engine.hpp"

using namespace imc::sim;

namespace {

ClusterSpec
small_cluster()
{
    ClusterSpec spec = ClusterSpec::private8();
    spec.num_nodes = 2;
    return spec;
}

TenantDemand
light()
{
    TenantDemand d;
    d.gen_mb = 1.0;
    d.need_mb = 1.0;
    d.bw_gbps = 0.5;
    d.mem_intensity = 0.5;
    return d;
}

/** Fully memory-bound victim that an aggressor visibly slows. */
TenantDemand
victim()
{
    TenantDemand d;
    d.gen_mb = 4.0;
    d.need_mb = 15.0;
    d.bw_gbps = 4.0;
    d.mem_intensity = 1.0;
    return d;
}

TenantDemand
aggressor()
{
    TenantDemand d;
    d.gen_mb = 40.0;
    d.need_mb = 40.0;
    d.bw_gbps = 30.0;
    d.mem_intensity = 0.8;
    return d;
}

} // namespace

TEST(Engine, SoloComputeTakesWorkSeconds)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    double finish = -1.0;
    sim.compute(p, 5.0, [&] { finish = sim.now(); });
    sim.run();
    // The smooth cache knee gives even a light solo tenant a slowdown
    // of 1 + O(1e-4); allow for it.
    EXPECT_NEAR(finish, 5.0 * sim.tenant_slowdown(t), 1e-9);
    EXPECT_NEAR(finish, 5.0, 5e-3);
}

TEST(Engine, ZeroWorkCompletesImmediatelyButAsync)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    bool done = false;
    sim.compute(p, 0.0, [&] { done = true; });
    EXPECT_FALSE(done); // not synchronous
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Engine, CoTenantSlowsCompute)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    sim.add_tenant(0, aggressor());
    const ProcId p = sim.add_proc(v);
    double finish = -1.0;
    sim.compute(p, 5.0, [&] { finish = sim.now(); });
    sim.run();
    EXPECT_GT(finish, 5.0 * 1.2);
    EXPECT_NEAR(finish, 5.0 * sim.tenant_slowdown(v), 1e-9);
}

TEST(Engine, TenantOnOtherNodeDoesNotInterfere)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    sim.add_tenant(1, aggressor());
    EXPECT_NEAR(sim.tenant_slowdown(v), 1.0, 0.15);
}

TEST(Engine, MidComputeArrivalReschedules)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    const double slow_solo = sim.tenant_slowdown(v);
    const ProcId p = sim.add_proc(v);
    double finish = -1.0;
    sim.compute(p, 10.0, [&] { finish = sim.now(); });
    // Halfway through, an aggressor lands on the node.
    sim.schedule(5.0, [&] { sim.add_tenant(0, aggressor()); });
    sim.run();
    // 5 seconds at the solo rate, then the rest at the contended rate.
    const double slow = sim.tenant_slowdown(v);
    EXPECT_GT(slow, slow_solo * 1.2);
    const double remaining_work = 10.0 - 5.0 / slow_solo;
    EXPECT_NEAR(finish, 5.0 + remaining_work * slow, 1e-6);
    EXPECT_GT(finish, 10.5);
}

TEST(Engine, MidComputeDepartureSpeedsUp)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    const TenantId a = sim.add_tenant(0, aggressor());
    const double slow = sim.tenant_slowdown(v);
    ASSERT_GT(slow, 1.2);
    const ProcId p = sim.add_proc(v);
    double finish = -1.0;
    sim.compute(p, 10.0, [&] { finish = sim.now(); });
    sim.schedule(slow * 5.0, [&] { sim.remove_tenant(a); });
    sim.run();
    // 5 work units at `slow`, then 5 at the solo rate.
    const double slow_solo = sim.tenant_slowdown(v);
    EXPECT_NEAR(finish, slow * 5.0 + 5.0 * slow_solo, 1e-6);
}

TEST(Engine, SetDemandTriggersRefresh)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    const TenantId a = sim.add_tenant(0, light());
    const double before = sim.tenant_slowdown(v);
    sim.set_demand(a, aggressor());
    EXPECT_GT(sim.tenant_slowdown(v), before);
}

TEST(Engine, RemoveTenantWithBusyProcThrows)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    sim.compute(p, 5.0, [] {});
    EXPECT_THROW(sim.remove_tenant(t), imc::LogicBug);
}

TEST(Engine, DoubleComputeOnBusyProcThrows)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    sim.compute(p, 5.0, [] {});
    EXPECT_TRUE(sim.proc_busy(p));
    EXPECT_THROW(sim.compute(p, 1.0, [] {}), imc::LogicBug);
}

TEST(Engine, TenantsOnCountsPerNode)
{
    Simulation sim(small_cluster());
    sim.add_tenant(0, light());
    const TenantId b = sim.add_tenant(0, light());
    sim.add_tenant(1, light());
    EXPECT_EQ(sim.tenants_on(0), 2);
    EXPECT_EQ(sim.tenants_on(1), 1);
    sim.remove_tenant(b);
    EXPECT_EQ(sim.tenants_on(0), 1);
    EXPECT_THROW(sim.tenants_on(2), imc::ConfigError);
    EXPECT_THROW(sim.tenants_on(-1), imc::ConfigError);
}

TEST(Engine, NodeOfReportsPlacement)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(1, light());
    EXPECT_EQ(sim.node_of(t), 1);
}

TEST(Engine, AddTenantOutOfRangeThrows)
{
    Simulation sim(small_cluster());
    EXPECT_THROW(sim.add_tenant(2, light()), imc::ConfigError);
    EXPECT_THROW(sim.add_tenant(-1, light()), imc::ConfigError);
}

TEST(Engine, RunHonorsEventBudget)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    // Self-perpetuating chain.
    std::function<void()> loop = [&] { sim.compute(p, 1.0, loop); };
    sim.compute(p, 1.0, loop);
    EXPECT_THROW(sim.run(100), imc::LogicBug);
}

TEST(Engine, TwoProcsOfOneTenantShareSlowdown)
{
    Simulation sim(small_cluster());
    const TenantId v = sim.add_tenant(0, victim());
    sim.add_tenant(0, aggressor());
    const ProcId p1 = sim.add_proc(v);
    const ProcId p2 = sim.add_proc(v);
    double f1 = -1.0;
    double f2 = -1.0;
    sim.compute(p1, 4.0, [&] { f1 = sim.now(); });
    sim.compute(p2, 4.0, [&] { f2 = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(f1, f2);
}

TEST(Engine, CompletesAtLargeSimulatedTimes)
{
    // A completion fires at now() + remaining / rate rounded to an ulp
    // of now(): about 1.2e-7 s at t = 1e9 s. The work still unsettled
    // when it fires scales with that ulp, far above 1e-9 units.
    for (const double start : {3.0e7, 1.0e8, 1.0e9}) {
        Simulation sim(small_cluster());
        const TenantId v = sim.add_tenant(0, victim());
        sim.add_tenant(0, aggressor());
        const ProcId p = sim.add_proc(v);
        int done = 0;
        std::function<void()> next = [&] {
            if (done < 50) {
                const double work = 0.3 + 0.7 * done / 49.0;
                sim.compute(p, work, [&] {
                    ++done;
                    next();
                });
            }
        };
        sim.schedule(start, next);
        ASSERT_NO_THROW(sim.run()) << "start " << start;
        EXPECT_EQ(done, 50);
        EXPECT_NEAR(sim.now(), start + 32.5 * sim.tenant_slowdown(v),
                    1e-4);
    }
    // Long computes reach large times from t = 0 too.
    for (int i = 0; i < 50; ++i) {
        Simulation sim(small_cluster());
        const TenantId v = sim.add_tenant(0, victim());
        sim.add_tenant(0, aggressor());
        const ProcId p = sim.add_proc(v);
        bool finished = false;
        sim.compute(p, 1.0e8 * (1.0 + i / 49.0), [&] { finished = true; });
        ASSERT_NO_THROW(sim.run()) << "compute " << i;
        EXPECT_TRUE(finished);
    }
}

TEST(Engine, AbortProcDropsItsDoneCallback)
{
    Simulation sim(small_cluster());
    const TenantId t = sim.add_tenant(0, light());
    const ProcId p = sim.add_proc(t);
    const auto capture = std::make_shared<int>(0);
    bool ran = false;
    sim.compute(p, 5.0, [&ran, capture] { ran = true; });
    EXPECT_EQ(capture.use_count(), 2);
    sim.abort_proc(p);
    EXPECT_FALSE(sim.proc_busy(p));
    EXPECT_EQ(capture.use_count(), 1); // released at once, not at run()
    sim.abort_proc(p);                 // idle: a no-op
    EXPECT_FALSE(sim.proc_busy(p));

    // The proc computes again, and only the new callback fires.
    bool again = false;
    sim.compute(p, 2.0, [&] { again = true; });
    sim.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(again);
    EXPECT_NEAR(sim.now(), 2.0, 1e-3);

    // crash_node releases its busy procs' callbacks the same way.
    const TenantId u = sim.add_tenant(1, light());
    const ProcId q1 = sim.add_proc(u);
    const ProcId q2 = sim.add_proc(u);
    bool crashed_ran = false;
    sim.compute(q1, 3.0, [&crashed_ran, capture] { crashed_ran = true; });
    sim.compute(q2, 4.0, [&crashed_ran, capture] { crashed_ran = true; });
    EXPECT_EQ(capture.use_count(), 3);
    sim.crash_node(1);
    EXPECT_EQ(capture.use_count(), 1);
    EXPECT_FALSE(sim.proc_busy(q1));
    EXPECT_FALSE(sim.proc_busy(q2));
    sim.run();
    EXPECT_FALSE(crashed_ran);
}
