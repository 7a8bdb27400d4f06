/**
 * @file
 * Regression tests for the determinism audit: the two unordered_map
 * sites that back recorded figures (CountingMeasure::cache_,
 * RunService::cache_) are keyed-lookup only, so hash layout and
 * insertion order must never reach any output; likewise the event
 * queue's slot reuse history must never reach firing order. Each
 * test rebuilds the container state along a different history (extra
 * schedule/cancel/fire cycles, shuffled submission order) and asserts
 * the observable results — event firing order, measured values and
 * profiling cost, serialized model bytes — are identical,
 * byte-for-byte where bytes exist.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/measure.hpp"
#include "core/registry.hpp"
#include "core/serialize.hpp"
#include "sim/event_queue.hpp"
#include "workload/catalog.hpp"
#include "workload/run_service.hpp"

using namespace imc;
using namespace imc::core;
using namespace imc::workload;

namespace {

RunConfig
fast_cfg()
{
    RunConfig cfg;
    cfg.reps = 1;
    cfg.seed = 4242;
    return cfg;
}

/** Pop and run every pending event. */
void
drain(sim::EventQueue& q)
{
    for (sim::EventQueue::Fired ev; q.pop(ev);)
        ev.cb();
}

/**
 * Fire the canonical tie-heavy event schedule and return the firing
 * order by payload. @p churn schedules that many throwaway events
 * FIRST and retires them — every third cancelled, last first, the
 * rest fired — so the queue's slot free list holds a different reuse
 * order before the real schedule begins.
 */
std::vector<int>
firing_order(int churn)
{
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < churn; ++i)
        ids.push_back(q.schedule_at(0.0, [] {}));
    for (std::size_t i = ids.size(); i-- > 0;) {
        if (i % 3 == 0)
            q.cancel(ids[i]);
    }
    drain(q);

    std::vector<int> fired;
    for (int i = 0; i < 200; ++i) {
        // Many deliberate time ties: ties must break by insertion
        // order (the seq counter), never by slot index.
        const double t = static_cast<double>((i * 37) % 50);
        q.schedule_at(t, [&fired, i] { fired.push_back(i); });
    }
    drain(q);
    return fired;
}

} // namespace

TEST(DeterminismAudit, EventQueuePopOrderIgnoresSlotReuseHistory)
{
    const std::vector<int> base = firing_order(0);
    EXPECT_EQ(base.size(), 200u);
    // Different churn -> different slot free-list orders.
    EXPECT_EQ(base, firing_order(7));
    EXPECT_EQ(base, firing_order(1000));
}

TEST(DeterminismAudit, CountingMeasureValuesIgnoreInsertionOrder)
{
    const auto inner = [](int p, int nodes) {
        return 1.0 + 0.125 * p * nodes; // exact in binary
    };
    std::vector<CountingMeasure::Setting> settings;
    for (int p = 1; p <= 6; ++p)
        for (int n = 0; n <= 5; ++n)
            settings.emplace_back(p, n);

    CountingMeasure forward{inner};
    for (const auto& [p, n] : settings)
        forward(p, n);

    // Reversed order plus duplicate hits: different cache_ layout,
    // same values, same distinct-settings cost.
    CountingMeasure backward{inner};
    for (auto it = settings.rbegin(); it != settings.rend(); ++it)
        backward(it->first, it->second);
    for (const auto& [p, n] : settings)
        backward(p, n);

    EXPECT_EQ(forward.measured(), backward.measured());
    for (const auto& [p, n] : settings)
        EXPECT_EQ(forward(p, n), backward(p, n))
            << "p=" << p << " nodes=" << n;
}

TEST(DeterminismAudit, ModelBytesIgnoreServiceCacheHistory)
{
    const auto& app = find_app("M.zeus");
    const auto cfg = fast_cfg();
    ModelBuildOptions opts;
    opts.policy_samples = 8; // keep the test fast

    const auto build_bytes = [&](bool churn_cache) {
        RunService svc(1);
        if (churn_cache) {
            // Unrelated requests first: the service's content-
            // addressed cache_ grows along a different insertion
            // history before the profiling campaign starts.
            const auto& km = find_app("H.KM");
            std::vector<sim::NodeId> nodes{0, 1};
            for (int salt = 0; salt < 17; ++salt) {
                auto salted = cfg;
                salted.salt = 1000 + salt;
                svc.run(solo_time_request(km, nodes, salted));
            }
        }
        ModelRegistry reg(cfg, opts, &svc);
        std::ostringstream out;
        save_model(out, reg.model(app, 4).model);
        return out.str();
    };

    const std::string clean = build_bytes(false);
    const std::string churned = build_bytes(true);
    EXPECT_FALSE(clean.empty());
    // The recorded figure's bytes, not just its values.
    EXPECT_EQ(clean, churned);
}
