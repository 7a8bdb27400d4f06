/**
 * @file
 * Unit tests of the placement representation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "placement/mixes.hpp"
#include "placement/placement.hpp"
#include "workload/catalog.hpp"

using namespace imc;
using namespace imc::placement;
using namespace imc::workload;

namespace {

std::vector<Instance>
four_instances()
{
    return {
        Instance{find_app("M.milc"), 4},
        Instance{find_app("M.Gems"), 4},
        Instance{find_app("H.KM"), 4},
        Instance{find_app("C.libq"), 4},
    };
}

sim::ClusterSpec
cluster()
{
    return sim::ClusterSpec::private8();
}

/** A hand-built valid pairing: (0,1) on nodes 0-3, (2,3) on 4-7. */
Placement
paired()
{
    Placement p(four_instances(), 8, 2);
    for (int u = 0; u < 4; ++u) {
        p.assign(0, u, u);
        p.assign(1, u, u);
        p.assign(2, u, 4 + u);
        p.assign(3, u, 4 + u);
    }
    return p;
}

} // namespace

TEST(Placement, UnassignedIsInvalid)
{
    const Placement p(four_instances(), 8, 2);
    EXPECT_FALSE(p.valid());
}

TEST(Placement, HandBuiltPairingIsValid)
{
    EXPECT_TRUE(paired().valid());
}

TEST(Placement, NodesOfSorted)
{
    const auto p = paired();
    EXPECT_EQ(p.nodes_of(2), (std::vector<sim::NodeId>{4, 5, 6, 7}));
}

TEST(Placement, SlotOverflowDetected)
{
    Placement p(four_instances(), 8, 2);
    for (int u = 0; u < 4; ++u) {
        p.assign(0, u, 0); // invalid: same node 4x for instance 0
        p.assign(1, u, 1);
        p.assign(2, u, 2);
        p.assign(3, u, 3);
    }
    EXPECT_FALSE(p.valid());
}

TEST(Placement, SameInstanceTwiceOnNodeDetected)
{
    Placement p = paired();
    // Move instance 0's unit 1 onto node 0 where unit 0 already is.
    p.assign(0, 1, 0);
    EXPECT_FALSE(p.valid());
}

TEST(Placement, CoTenantsFindsPartner)
{
    const auto p = paired();
    EXPECT_EQ(p.co_tenants(0, 0), (std::vector<int>{1}));
    EXPECT_EQ(p.co_tenants(2, 5), (std::vector<int>{3}));
    // co_tenants reports everyone else on the node, regardless of
    // whether the queried instance itself occupies it.
    EXPECT_EQ(p.co_tenants(0, 4), (std::vector<int>{2, 3}));
}

TEST(Placement, PressureListsUseOthersScores)
{
    const auto p = paired();
    const std::vector<double> scores{4.0, 2.0, 0.5, 6.0};
    const auto lists = p.pressure_lists(scores);
    // Instance 0 shares all nodes with instance 1 (score 2).
    EXPECT_EQ(lists[0], (std::vector<double>{2, 2, 2, 2}));
    // Instance 1 sees instance 0 (score 4).
    EXPECT_EQ(lists[1], (std::vector<double>{4, 4, 4, 4}));
    // Instance 2 sees C.libq's score 6.
    EXPECT_EQ(lists[2], (std::vector<double>{6, 6, 6, 6}));
}

TEST(Placement, PressureListsScoreCountChecked)
{
    EXPECT_THROW(paired().pressure_lists({1.0}), ConfigError);
}

TEST(Placement, SwapValidityRules)
{
    const auto p = paired();
    // Swapping units of the same instance is never valid.
    EXPECT_FALSE(p.swap_is_valid(0, 0, 0, 1));
    // Swapping two co-located units is a no-op (same node).
    EXPECT_FALSE(p.swap_is_valid(0, 0, 1, 0));
    // Instance 0 unit 0 (node 0) with instance 2 unit 0 (node 4):
    // valid — neither occupies the other's node.
    EXPECT_TRUE(p.swap_is_valid(0, 0, 2, 0));
    // Instance 0 unit 0 (node 0) with instance 1 unit 1 (node 1):
    // invalid — instance 0 already has a unit on node 1.
    EXPECT_FALSE(p.swap_is_valid(0, 0, 1, 1));
}

TEST(Placement, RandomPlacementsAreValidAndVaried)
{
    Rng rng(17);
    std::set<std::string> layouts;
    for (int i = 0; i < 20; ++i) {
        const auto p =
            Placement::random(four_instances(), cluster(), rng);
        ASSERT_TRUE(p.valid());
        layouts.insert(p.to_string());
    }
    EXPECT_GT(layouts.size(), 5u); // genuinely random
}

TEST(Placement, RejectsOverfullConfigurations)
{
    std::vector<Instance> too_many(5, Instance{find_app("M.milc"), 4});
    EXPECT_THROW(Placement(too_many, 8, 2), ConfigError);
    EXPECT_THROW(Placement({Instance{find_app("M.milc"), 9}}, 8, 2),
                 ConfigError);
}

TEST(Placement, ToStringListsTenants)
{
    const auto s = paired().to_string();
    EXPECT_NE(s.find("M.milc"), std::string::npos);
    EXPECT_NE(s.find("n0:["), std::string::npos);
}

TEST(Mixes, Table5HasTenMixesOfFour)
{
    const auto& mixes = table5_mixes();
    ASSERT_EQ(mixes.size(), 10u);
    for (const auto& mix : mixes) {
        EXPECT_EQ(mix.apps.size(), 4u) << mix.name;
        for (const auto& abbrev : mix.apps)
            EXPECT_NO_THROW(find_app(abbrev)) << abbrev;
        EXPECT_EQ(mix.qos_index, -1);
    }
    EXPECT_EQ(mixes.front().name, "HW1");
    EXPECT_EQ(mixes.back().name, "L");
}

TEST(Mixes, QosMixesNameACriticalApp)
{
    for (const auto& mix : qos_mixes()) {
        EXPECT_EQ(mix.apps.size(), 4u);
        EXPECT_GE(mix.qos_index, 0);
        EXPECT_LT(mix.qos_index, 4);
        // The critical app must be distributed (QoS for parallel apps).
        EXPECT_TRUE(find_app(mix.apps[static_cast<std::size_t>(
                                 mix.qos_index)])
                        .distributed());
    }
}

TEST(Mixes, InstantiateSplitsSlotsEvenly)
{
    const auto instances =
        instantiate(table5_mixes().front(), cluster());
    ASSERT_EQ(instances.size(), 4u);
    for (const auto& inst : instances)
        EXPECT_EQ(inst.units, 4);
}

TEST(Mixes, Hm3ContainsGemsTwice)
{
    const auto& hm3 = table5_mixes()[5];
    ASSERT_EQ(hm3.name, "HM3");
    EXPECT_EQ(std::count(hm3.apps.begin(), hm3.apps.end(),
                         std::string("M.Gems")),
              2);
    // Two instances of the same app must instantiate independently.
    const auto instances = instantiate(hm3, cluster());
    EXPECT_EQ(instances[2].app.abbrev, "M.Gems");
    EXPECT_EQ(instances[3].app.abbrev, "M.Gems");
}

TEST(Placement, CopiesStayIndependentWhenInstancesChange)
{
    // Copies share one instance list until one of them adds or
    // removes an instance; the others must not see the change.
    const Placement original = paired();
    Placement shrunk = original;
    shrunk.remove_instance_swap(0); // C.libq moves into index 0
    Placement grown = original;
    grown.push_instance(Instance{find_app("C.mcf"), 1}, {7});

    ASSERT_EQ(shrunk.num_instances(), 3);
    EXPECT_EQ(shrunk.instances()[0].app.abbrev, "C.libq");
    ASSERT_EQ(grown.num_instances(), 5);
    EXPECT_EQ(grown.instances()[4].app.abbrev, "C.mcf");
    ASSERT_EQ(original.num_instances(), 4);
    EXPECT_EQ(original.instances()[0].app.abbrev, "M.milc");
    EXPECT_EQ(original.to_string(), paired().to_string());
}
