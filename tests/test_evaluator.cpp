/**
 * @file
 * Tests of the model-backed and naive placement evaluators and of the
 * simulated ground-truth measurement.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "placement/evaluator.hpp"
#include "placement/mixes.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::placement;
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

std::vector<Instance>
mix_instances()
{
    return {
        Instance{find_app("M.milc"), 4},
        Instance{find_app("M.Gems"), 4},
        Instance{find_app("H.KM"), 4},
        Instance{find_app("C.libq"), 4},
    };
}

Placement
paired(const std::vector<Instance>& instances, int a, int b, int c,
       int d)
{
    // Pair (a,b) on nodes 0-3, (c,d) on nodes 4-7.
    Placement p(instances, 8, 2);
    for (int u = 0; u < 4; ++u) {
        p.assign(a, u, u);
        p.assign(b, u, u);
        p.assign(c, u, 4 + u);
        p.assign(d, u, 4 + u);
    }
    return p;
}

} // namespace

TEST(ModelEvaluatorTest, PredictsHigherTimeUnderAggressiveCoTenant)
{
    const auto instances = mix_instances();
    ModelEvaluator eval(shared_registry(), instances);
    // M.milc (0) paired with C.libq (3, very aggressive) ...
    const auto hot = eval.predict(paired(instances, 0, 3, 1, 2));
    // ... versus paired with H.KM (2, gentle).
    const auto cool = eval.predict(paired(instances, 0, 2, 1, 3));
    EXPECT_GT(hot[0], cool[0]);
    EXPECT_GE(cool[0], 1.0);
}

TEST(ModelEvaluatorTest, TotalTimeWeightsByUnits)
{
    const auto instances = mix_instances();
    ModelEvaluator eval(shared_registry(), instances);
    const auto p = paired(instances, 0, 1, 2, 3);
    const auto times = eval.predict(p);
    double expect = 0.0;
    for (std::size_t i = 0; i < times.size(); ++i)
        expect += times[i] * 4.0;
    EXPECT_DOUBLE_EQ(eval.total_time(p), expect);
}

TEST(ModelEvaluatorTest, ScoresExposedForAllInstances)
{
    const auto instances = mix_instances();
    ModelEvaluator eval(shared_registry(), instances);
    ASSERT_EQ(eval.scores().size(), 4u);
    // C.libq must out-score H.KM by a wide margin.
    EXPECT_GT(eval.scores()[3], eval.scores()[2] + 2.0);
}

TEST(NaiveEvaluatorTest, UnderestimatesBarrierCoupledApps)
{
    const auto instances = mix_instances();
    ModelEvaluator model_eval(shared_registry(), instances);
    ModelEvaluator naive_eval(shared_registry(), instances,
                              Predictor::kNaive);
    // M.milc with the aggressor on all four of its nodes: both agree
    // (j = m). Put the aggressor on ONE node via a mixed pairing
    // instead: model must predict more than naive for the
    // high-propagation app.
    const auto instances2 = mix_instances();
    Placement p(instances2, 8, 2);
    // milc on 0-3; libq on 3,4,5,6; Gems on 0,1,2,7*... build simply:
    p.assign(0, 0, 0);
    p.assign(0, 1, 1);
    p.assign(0, 2, 2);
    p.assign(0, 3, 3);
    p.assign(3, 0, 3); // libq shares exactly node 3 with milc
    p.assign(3, 1, 4);
    p.assign(3, 2, 5);
    p.assign(3, 3, 6);
    p.assign(1, 0, 0);
    p.assign(1, 1, 1);
    p.assign(1, 2, 2);
    p.assign(1, 3, 7);
    p.assign(2, 0, 4);
    p.assign(2, 1, 5);
    p.assign(2, 2, 6);
    p.assign(2, 3, 7);
    ASSERT_TRUE(p.valid());
    const double model_time = model_eval.predict(p)[0];
    const double naive_time = naive_eval.predict(p)[0];
    EXPECT_GT(model_time, naive_time);
}

TEST(MeasureActual, CleanishPairingNearSolo)
{
    // H.KM and M.Gems are gentle: paired together they should both
    // run close to solo speed.
    std::vector<Instance> instances{Instance{find_app("H.KM"), 4},
                                    Instance{find_app("M.Gems"), 4}};
    sim::ClusterSpec cluster = sim::ClusterSpec::private8();
    cluster.num_nodes = 4;
    Placement p(instances, 4, 2);
    for (int u = 0; u < 4; ++u) {
        p.assign(0, u, u);
        p.assign(1, u, u);
    }
    RunConfig cfg = fast_cfg();
    cfg.cluster = cluster;
    const auto times = measure_actual(p, cfg);
    ASSERT_EQ(times.size(), 2u);
    EXPECT_LT(times[0], 1.3);
    EXPECT_GT(times[0], 0.85);
}

TEST(MeasureActual, AggressivePairingSlowsSensitiveApp)
{
    std::vector<Instance> instances{Instance{find_app("N.mg"), 4},
                                    Instance{find_app("C.libq"), 4}};
    sim::ClusterSpec cluster = sim::ClusterSpec::private8();
    cluster.num_nodes = 4;
    Placement p(instances, 4, 2);
    for (int u = 0; u < 4; ++u) {
        p.assign(0, u, u);
        p.assign(1, u, u);
    }
    RunConfig cfg = fast_cfg();
    cfg.cluster = cluster;
    const auto times = measure_actual(p, cfg);
    EXPECT_GT(times[0], 1.15); // N.mg visibly suffers under libquantum
}

TEST(MeasureActual, RejectsInvalidPlacement)
{
    std::vector<Instance> instances{Instance{find_app("H.KM"), 4},
                                    Instance{find_app("M.Gems"), 4}};
    Placement p(instances, 4, 2); // unassigned
    RunConfig cfg = fast_cfg();
    cfg.cluster.num_nodes = 4;
    EXPECT_THROW(measure_actual(p, cfg), ConfigError);
}
