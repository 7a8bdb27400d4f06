/**
 * @file
 * Tests of bubble score measurement: the scorer must recover each
 * application's calibrated generated-interference intensity.
 */

#include <gtest/gtest.h>

#include "core/scorer.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 31;
    return cfg;
}

const BubbleScorer&
shared_scorer()
{
    static RunService service(1);
    static const BubbleScorer scorer(fast_cfg(), service);
    return scorer;
}

} // namespace

TEST(BubbleScorer, CalibrationCurveMonotone)
{
    const auto& curve = shared_scorer().calibration();
    ASSERT_EQ(curve.size(), 9u); // pressures 0..8
    EXPECT_DOUBLE_EQ(curve[0], 1.0);
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1] - 0.02)
            << "calibration dips at pressure " << i;
    EXPECT_GT(curve.back(), 1.15); // a p8 bubble must hurt the probe
}

TEST(BubbleScorer, RecoversBubblePressureItself)
{
    // Scoring a bubble at pressure p must give back ~p.
    const auto& scorer = shared_scorer();
    for (double p : {2.0, 5.0}) {
        const double s = scorer.score(bubble_as_app(p), {0});
        EXPECT_NEAR(s, p, 0.8) << "pressure " << p;
    }
}

TEST(BubbleScorer, AggressiveAppsScoreHigherThanGentleOnes)
{
    const auto& scorer = shared_scorer();
    const auto nodes =
        all_nodes(fast_cfg().cluster);
    const double libq = scorer.score(find_app("C.libq"), nodes);
    const double km = scorer.score(find_app("H.KM"), nodes);
    EXPECT_GT(libq, km + 2.0);
}

TEST(BubbleScorer, ScoresWithinPressureScale)
{
    const auto& scorer = shared_scorer();
    const auto nodes = all_nodes(fast_cfg().cluster);
    for (const auto& abbrev : {"M.lmps", "N.mg", "S.WC"}) {
        const double s = scorer.score(find_app(abbrev), nodes);
        EXPECT_GE(s, 0.0) << abbrev;
        EXPECT_LE(s, 8.0) << abbrev;
    }
}

TEST(BubbleScorer, ReporterSpecIsWellFormed)
{
    const auto probe = reporter_spec();
    EXPECT_EQ(probe.kind, AppKind::Batch);
    EXPECT_GT(probe.demand.gen_mb, 0.0);
    EXPECT_GT(probe.batch.total_work, 0.0);
}

TEST(BubbleScorer, BubbleAsAppCarriesPressureDemand)
{
    const auto b2 = bubble_as_app(2.0);
    const auto b7 = bubble_as_app(7.0);
    EXPECT_GT(b7.demand.gen_mb, b2.demand.gen_mb);
    EXPECT_GT(b7.demand.bw_gbps, b2.demand.bw_gbps);
}
