/**
 * @file
 * Tests of the 18-application catalog (the paper's Table 1), the
 * bubble demand mapping, and the multi-tenant pressure combination.
 */

#include <gtest/gtest.h>

#include <set>

#include "bubble/bubble.hpp"
#include "common/error.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::workload;

TEST(Catalog, HasAllEighteenApplications)
{
    EXPECT_EQ(catalog().size(), 18u);
    EXPECT_EQ(distributed_apps().size(), 12u);
    EXPECT_EQ(batch_apps().size(), 6u);
}

TEST(Catalog, AbbreviationsUniqueAndWellFormed)
{
    std::set<std::string> abbrevs;
    for (const auto& app : catalog()) {
        EXPECT_FALSE(app.abbrev.empty());
        EXPECT_FALSE(app.name.empty());
        EXPECT_TRUE(abbrevs.insert(app.abbrev).second)
            << "duplicate " << app.abbrev;
    }
}

TEST(Catalog, FindAppRoundTrips)
{
    for (const auto& app : catalog())
        EXPECT_EQ(find_app(app.abbrev).name, app.name);
}

TEST(Catalog, FindAppUnknownThrows)
{
    EXPECT_THROW(find_app("nope"), ConfigError);
}

TEST(Catalog, PaperScoresCoverEveryApp)
{
    for (const auto& app : catalog()) {
        const double s = paper_bubble_score(app.abbrev);
        EXPECT_GT(s, 0.0);
        EXPECT_LE(s, 8.0);
    }
    EXPECT_THROW(paper_bubble_score("nope"), ConfigError);
}

TEST(Catalog, GeneratedDemandTracksPaperScore)
{
    // Each app's generated side is the bubble demand at its paper
    // score — the calibration contract.
    for (const auto& app : catalog()) {
        const auto expect =
            bubble::bubble_demand(paper_bubble_score(app.abbrev));
        EXPECT_NEAR(app.demand.gen_mb, expect.gen_mb, 1e-9)
            << app.abbrev;
        EXPECT_NEAR(app.demand.bw_gbps, expect.bw_gbps, 1e-9)
            << app.abbrev;
    }
}

TEST(Catalog, SuiteTemplatesMatchPaper)
{
    // MPI/NPB (except GemsFDTD) are bulk-synchronous.
    for (const auto& abbrev :
         {"M.milc", "M.lesl", "M.lmps", "M.zeus", "M.lu", "N.cg",
          "N.mg"})
        EXPECT_EQ(find_app(abbrev).kind, AppKind::Bsp) << abbrev;
    // GemsFDTD: barrier-poor -> task-pool template, no idle master.
    EXPECT_EQ(find_app("M.Gems").kind, AppKind::TaskPool);
    EXPECT_FALSE(find_app("M.Gems").pool.idle_master);
    EXPECT_TRUE(find_app("M.Gems").dom0_sensitive);
    // Hadoop/Spark: task pools with an idle master.
    for (const auto& abbrev : {"H.KM", "S.WC", "S.CF", "S.PR"}) {
        EXPECT_EQ(find_app(abbrev).kind, AppKind::TaskPool) << abbrev;
        EXPECT_TRUE(find_app(abbrev).pool.idle_master) << abbrev;
        EXPECT_TRUE(find_app(abbrev).fluctuating_cpu) << abbrev;
    }
    // SPEC CPU2006: batch.
    for (const auto& app : batch_apps())
        EXPECT_EQ(app.kind, AppKind::Batch) << app.abbrev;
}

TEST(Catalog, DemandsWithinPhysicalBounds)
{
    for (const auto& app : catalog()) {
        EXPECT_GE(app.demand.mem_intensity, 0.0) << app.abbrev;
        EXPECT_LE(app.demand.mem_intensity, 1.0) << app.abbrev;
        EXPECT_GT(app.demand.gen_mb, 0.0) << app.abbrev;
        EXPECT_GT(app.demand.bw_gbps, 0.0) << app.abbrev;
        EXPECT_GE(app.demand.cache_gamma, 0.0) << app.abbrev;
        EXPECT_GE(app.noise_sigma, 0.0) << app.abbrev;
    }
}

TEST(Bubble, DemandMonotoneInPressure)
{
    double prev_gen = 0.0;
    double prev_bw = 0.0;
    for (double p = 0.5; p <= 8.0; p += 0.5) {
        const auto d = bubble::bubble_demand(p);
        EXPECT_GT(d.gen_mb, prev_gen);
        EXPECT_GT(d.bw_gbps, prev_bw);
        prev_gen = d.gen_mb;
        prev_bw = d.bw_gbps;
    }
}

TEST(Bubble, ZeroOrNegativePressureIsNoDemand)
{
    for (double p : {0.0, -1.0}) {
        const auto d = bubble::bubble_demand(p);
        EXPECT_EQ(d.gen_mb, 0.0);
        EXPECT_EQ(d.bw_gbps, 0.0);
        EXPECT_EQ(d.mem_intensity, 0.0);
    }
}

TEST(Bubble, ContinuousScoreMapsBetweenLevels)
{
    const auto lo = bubble::bubble_demand(3.0);
    const auto mid = bubble::bubble_demand(3.5);
    const auto hi = bubble::bubble_demand(4.0);
    EXPECT_GT(mid.gen_mb, lo.gen_mb);
    EXPECT_LT(mid.gen_mb, hi.gen_mb);
}

TEST(CombinePressures, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(bubble::combine_pressures({}), 0.0);
    EXPECT_DOUBLE_EQ(bubble::combine_pressures({0.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(bubble::combine_pressures({3.7}), 3.7);
    EXPECT_DOUBLE_EQ(bubble::combine_pressures({0.0, 3.7, 0.0}), 3.7);
}

TEST(CombinePressures, DemandAdditive)
{
    const double combined = bubble::combine_pressures({3.0, 3.0});
    // The combined bubble must generate the sum of the parts.
    const double want = 2.0 * bubble::bubble_demand(3.0).gen_mb;
    EXPECT_NEAR(bubble::bubble_demand(combined).gen_mb, want, 1e-6);
    // And it must exceed either constituent.
    EXPECT_GT(combined, 3.0);
}

TEST(CombinePressures, MonotoneInParts)
{
    const double small = bubble::combine_pressures({2.0, 1.0});
    const double large = bubble::combine_pressures({2.0, 4.0});
    EXPECT_GT(large, small);
}

TEST(CombinePressures, ManyHeavyTenantsSaturateAtCap)
{
    const double c = bubble::combine_pressures({8, 8, 8, 8, 8, 8});
    EXPECT_LE(c, 16.0 + 1e-9);
    EXPECT_GT(c, 8.0);
}
