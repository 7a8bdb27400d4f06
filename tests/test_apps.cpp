/**
 * @file
 * Unit tests of the application drivers (BSP, task-pool, batch).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "workload/app.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::workload;

namespace {

sim::ClusterSpec
cluster()
{
    return sim::ClusterSpec::private8();
}

LaunchOptions
opts_on(std::vector<sim::NodeId> nodes, int procs = 2,
        std::uint64_t seed = 7)
{
    LaunchOptions o;
    o.nodes = std::move(nodes);
    o.procs_per_node = procs;
    o.rng = Rng(seed);
    return o;
}

AppSpec
tiny_bsp()
{
    AppSpec s = find_app("M.milc");
    s.bsp.iterations = 5;
    s.noise_sigma = 0.0;
    s.bsp.imbalance_cv = 0.0;
    return s;
}

AppSpec
tiny_pool()
{
    AppSpec s = find_app("H.KM");
    s.pool.stages = 2;
    s.pool.tasks_per_wave = 2;
    s.pool.task_work_cv = 0.0;
    s.noise_sigma = 0.0;
    return s;
}

AppSpec
tiny_batch()
{
    AppSpec s = find_app("C.gcc");
    s.batch.total_work = 4.0;
    s.batch.segments = 4;
    s.noise_sigma = 0.0;
    return s;
}

} // namespace

TEST(BspAppDriver, SoloRuntimeMatchesWorkPlusCollectives)
{
    sim::Simulation sim(cluster());
    auto app = launch(sim, tiny_bsp(), opts_on({0, 1}));
    sim.run();
    ASSERT_TRUE(app->done());
    // 5 iterations of 1.0 work + 5 collectives of 0.02, inflated by
    // the app's (tiny) solo slowdown and by the expected maximum of
    // the node-correlated per-iteration noise across procs.
    EXPECT_NEAR(app->finish_time(), 5.0 + 5 * 0.02, 0.45);
    EXPECT_GE(app->finish_time(), 5.0 + 5 * 0.02 - 1e-9);
}

TEST(BspAppDriver, CompletionCallbackFires)
{
    sim::Simulation sim(cluster());
    bool completed = false;
    auto o = opts_on({0});
    o.on_complete = [&] { completed = true; };
    auto app = launch(sim, tiny_bsp(), std::move(o));
    sim.run();
    EXPECT_TRUE(completed);
}

TEST(BspAppDriver, TenantsRemovedAfterCompletion)
{
    sim::Simulation sim(cluster());
    auto app = launch(sim, tiny_bsp(), opts_on({0, 1}));
    EXPECT_EQ(sim.tenants_on(0), 1);
    EXPECT_EQ(sim.tenants_on(1), 1);
    sim.run();
    EXPECT_EQ(sim.tenants_on(0), 0);
    EXPECT_EQ(sim.tenants_on(1), 0);
}

TEST(BspAppDriver, SlowNodeDelaysWholeApp)
{
    // Barrier coupling: an aggressor on ONE node must delay the app by
    // (nearly) the same factor as aggressors on BOTH nodes.
    AppSpec spec = tiny_bsp();
    sim::TenantDemand aggressor;
    aggressor.gen_mb = 40.0;
    aggressor.need_mb = 40.0;
    aggressor.bw_gbps = 30.0;
    aggressor.mem_intensity = 0.8;

    auto run_with = [&](std::vector<int> bubble_nodes) {
        sim::Simulation sim(cluster());
        for (int n : bubble_nodes)
            sim.add_tenant(n, aggressor);
        auto app = launch(sim, spec, opts_on({0, 1}));
        sim.run();
        return app->finish_time();
    };
    const double solo = run_with({});
    const double one = run_with({0});
    const double both = run_with({0, 1});
    EXPECT_GT(one, solo * 1.15);
    // One slowed node captures at least 95% of the full two-node hit.
    EXPECT_GT((one - solo) / (both - solo), 0.95);
}

TEST(BspAppDriver, RejectsBadInjection)
{
    // tiny_bsp() on two nodes x 2 procs: ranks 0..3, iterations 0..4.
    const auto launch_with = [](BspInjection inj) {
        AppSpec spec = tiny_bsp();
        spec.bsp.injections = {inj};
        sim::Simulation sim(cluster());
        launch(sim, spec, opts_on({0, 1}));
    };
    EXPECT_NO_THROW(launch_with({3, 4, 0.1}));
    const double inf = std::numeric_limits<double>::infinity();
    for (const double delay : {0.0, -0.1, inf, std::nan("")})
        EXPECT_THROW(launch_with({0, 0, delay}), ConfigError) << delay;
    for (const int rank : {-1, 4})
        EXPECT_THROW(launch_with({rank, 0, 0.1}), ConfigError) << rank;
    for (const int iter : {-1, 5})
        EXPECT_THROW(launch_with({0, iter, 0.1}), ConfigError) << iter;
}

TEST(TaskPoolAppDriver, AllTasksExecuted)
{
    sim::Simulation sim(cluster());
    auto app = launch(sim, tiny_pool(), opts_on({0, 1}));
    sim.run();
    ASSERT_TRUE(app->done());
    EXPECT_GT(app->finish_time(), 0.0);
}

TEST(TaskPoolAppDriver, DynamicBalancingAbsorbsOneSlowNode)
{
    // Task-pool apps shed work from a slowed node: the one-node hit is
    // a small fraction of the all-node hit (proportional propagation).
    AppSpec spec = find_app("M.Gems"); // task pool, no master
    spec.noise_sigma = 0.0;
    spec.pool.task_work_cv = 0.0;
    sim::TenantDemand aggressor;
    aggressor.gen_mb = 40.0;
    aggressor.need_mb = 40.0;
    aggressor.bw_gbps = 30.0;
    aggressor.mem_intensity = 0.8;

    auto run_with = [&](std::vector<int> bubble_nodes) {
        sim::Simulation sim(cluster());
        for (int n : bubble_nodes)
            sim.add_tenant(n, aggressor);
        auto app = launch(sim, spec, opts_on({0, 1, 2, 3}, 4, 11));
        sim.run();
        return app->finish_time();
    };
    const double solo = run_with({});
    const double one = run_with({0});
    const double all = run_with({0, 1, 2, 3});
    ASSERT_GT(all, solo * 1.1);
    EXPECT_LT((one - solo) / (all - solo), 0.7);
}

TEST(TaskPoolAppDriver, IdleMasterShrinksNodeZeroDemand)
{
    AppSpec spec = tiny_pool();
    ASSERT_TRUE(spec.pool.idle_master);
    sim::Simulation sim(cluster());
    auto app = launch(sim, spec, opts_on({0, 1}, 4));
    // Can't read demands directly, but both nodes must carry exactly
    // one tenant while running.
    EXPECT_EQ(sim.tenants_on(0), 1);
    EXPECT_EQ(sim.tenants_on(1), 1);
    sim.run();
    EXPECT_TRUE(app->done());
}

TEST(BatchAppDriver, MeanFinishTimeMetric)
{
    sim::Simulation sim(cluster());
    auto app = launch(sim, tiny_batch(), opts_on({0}, 3));
    sim.run();
    ASSERT_TRUE(app->done());
    // All instances identical and unhindered: mean == individual ==
    // 4 x the (tiny) solo slowdown.
    EXPECT_NEAR(app->finish_time(), 4.0, 0.1);
    EXPECT_GE(app->finish_time(), 4.0 - 1e-9);
}

TEST(BatchAppDriver, InstancesIndependentAcrossNodes)
{
    AppSpec spec = tiny_batch();
    sim::TenantDemand aggressor;
    aggressor.gen_mb = 40.0;
    aggressor.need_mb = 40.0;
    aggressor.bw_gbps = 30.0;
    aggressor.mem_intensity = 0.8;

    auto run_with = [&](bool bubble) {
        sim::Simulation sim(cluster());
        if (bubble)
            sim.add_tenant(0, aggressor);
        auto app = launch(sim, spec, opts_on({0, 1}, 1));
        sim.run();
        return app->finish_time();
    };
    const double solo = run_with(false);
    const double one = run_with(true);
    // Only half the instances are slowed; the mean metric moves by
    // half the per-instance slowdown (which can approach ~2.5x).
    EXPECT_GT(one, solo);
    EXPECT_LT(one, solo * 1.9);
}

TEST(LaunchValidation, RejectsBadOptions)
{
    sim::Simulation sim(cluster());
    LaunchOptions no_nodes;
    EXPECT_THROW(launch(sim, tiny_bsp(), std::move(no_nodes)),
                 ConfigError);

    LaunchOptions dup = opts_on({0, 0});
    EXPECT_THROW(launch(sim, tiny_bsp(), std::move(dup)), ConfigError);

    LaunchOptions zero_procs = opts_on({0}, 0);
    EXPECT_THROW(launch(sim, tiny_bsp(), std::move(zero_procs)),
                 ConfigError);
}

TEST(LaunchValidation, FinishTimeBeforeDoneThrows)
{
    sim::Simulation sim(cluster());
    auto app = launch(sim, tiny_bsp(), opts_on({0}));
    EXPECT_THROW(app->finish_time(), LogicBug);
}

TEST(Determinism, SameSeedSameRuntime)
{
    auto run_once = [](std::uint64_t seed) {
        sim::Simulation sim(cluster());
        AppSpec spec = find_app("M.lesl");
        spec.bsp.iterations = 10;
        auto app = launch(sim, spec, opts_on({0, 1, 2}, 4, seed));
        sim.run();
        return app->finish_time();
    };
    EXPECT_DOUBLE_EQ(run_once(123), run_once(123));
    EXPECT_NE(run_once(123), run_once(124));
}
