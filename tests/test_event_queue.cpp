/**
 * @file
 * Unit tests of the cancellable, reschedulable event queue.
 *
 * The contract suite asserts every ordering, cancellation,
 * rescheduling and liveness guarantee. The randomized oracle drives
 * 100k+ mixed operations (schedule/pop/cancel/reschedule, heavy time
 * ties, far-future outliers, and cancels/reschedules of already-fired
 * ids whose slots have been reused) against a std::map ordered by
 * (time, insertion seq) — the exact order the queue promises, with a
 * reschedule taking a fresh seq as cancel + schedule_at would.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using namespace imc::sim;

class EventQueueContract : public ::testing::Test {
  protected:
    EventQueue queue_;
};

TEST_F(EventQueueContract, RunsInTimeOrder)
{
    auto& q = queue_;
    std::vector<int> order;
    q.schedule_at(2.0, [&] { order.push_back(2); });
    q.schedule_at(1.0, [&] { order.push_back(1); });
    q.schedule_at(3.0, [&] { order.push_back(3); });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST_F(EventQueueContract, TiesBreakFifo)
{
    auto& q = queue_;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule_at(1.0, [&order, i] { order.push_back(i); });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(EventQueueContract, CancelPreventsExecution)
{
    auto& q = queue_;
    bool ran = false;
    const EventId id = q.schedule_at(1.0, [&] { ran = true; });
    q.cancel(id);
    while (q.pop_and_run()) {
    }
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.executed(), 0u);
}

TEST_F(EventQueueContract, CancelIsIdempotent)
{
    auto& q = queue_;
    const EventId id = q.schedule_at(1.0, [] {});
    q.cancel(id);
    q.cancel(id); // no-op
    EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueContract, CancelOfAbsentIdIsHarmless)
{
    auto& q = queue_;
    q.cancel(12345); // never scheduled
    int fired = 0;
    const EventId id = q.schedule_at(1.0, [&] { ++fired; });
    q.cancel(id + 1000); // also never scheduled
    ASSERT_TRUE(q.pop_and_run());
    q.cancel(id); // already fired
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueContract, SizeTracksLiveEvents)
{
    auto& q = queue_;
    const EventId a = q.schedule_at(1.0, [] {});
    q.schedule_at(2.0, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.pop_and_run();
    EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueContract, EventsMayScheduleMoreEvents)
{
    auto& q = queue_;
    int fired = 0;
    q.schedule_at(1.0, [&] {
        ++fired;
        q.schedule_at(2.0, [&] { ++fired; });
    });
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST_F(EventQueueContract, SchedulingIntoThePastThrows)
{
    auto& q = queue_;
    q.schedule_at(5.0, [] {});
    q.pop_and_run();
    EXPECT_THROW(q.schedule_at(4.0, [] {}), imc::ConfigError);
    const EventId id = q.schedule_at(6.0, [] {});
    EXPECT_THROW(q.reschedule(id, 4.0), imc::ConfigError);
    EXPECT_EQ(q.size(), 1u);
}

TEST_F(EventQueueContract, NullCallbackRejected)
{
    EXPECT_THROW(queue_.schedule_at(1.0, Callback{}),
                 imc::ConfigError);
}

TEST_F(EventQueueContract, PopOnEmptyReturnsFalse)
{
    EXPECT_FALSE(queue_.pop_and_run());
}

TEST_F(EventQueueContract, ExecutedCountsOnlyRealRuns)
{
    auto& q = queue_;
    q.schedule_at(1.0, [] {});
    const EventId id = q.schedule_at(2.0, [] {});
    q.cancel(id);
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(q.executed(), 1u);
}

TEST_F(EventQueueContract, FifoSurvivesInternalReorganization)
{
    // 512 tied events interleaved with 2048 spread events: sifts
    // move the tied cohort around the heap many times while it is
    // live, so this pins FIFO order across internal moves.
    auto& q = queue_;
    std::vector<int> tied_order;
    std::vector<EventId> spread;
    for (int i = 0; i < 512; ++i) {
        q.schedule_at(100.0,
                      [&tied_order, i] { tied_order.push_back(i); });
        for (int j = 0; j < 4; ++j) {
            const double when =
                static_cast<double>(i) * 0.15 +
                static_cast<double>(j) * 7.3 + 0.01; // all < 100
            spread.push_back(q.schedule_at(when, [] {}));
        }
    }
    // Cancel half the spread events to mix erasure into the same
    // window, then drain.
    for (std::size_t i = 0; i < spread.size(); i += 2)
        q.cancel(spread[i]);
    while (q.pop_and_run()) {
    }
    ASSERT_EQ(tied_order.size(), 512u);
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(tied_order[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(q.now(), 100.0);
}

TEST_F(EventQueueContract, FarFutureEventsFireInOrder)
{
    // A cluster near t=0 plus stragglers many orders of magnitude
    // out must still fire in (time, seq) order.
    auto& q = queue_;
    std::vector<int> order;
    q.schedule_at(1.0e12, [&] { order.push_back(3); });
    q.schedule_at(0.5, [&] { order.push_back(0); });
    q.schedule_at(1.0e6, [&] { order.push_back(2); });
    q.schedule_at(0.75, [&] { order.push_back(1); });
    q.schedule_at(1.0e12, [&] { order.push_back(4); }); // ties FIFO
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(EventQueueContract, RescheduleOntoATieQueuesBehindIt)
{
    // A rescheduled event takes a fresh seq: it fires after events
    // already at its new time, exactly where cancel + schedule_at
    // would put it, and keeps its id while pending.
    auto& q = queue_;
    std::vector<int> order;
    const EventId moved = q.schedule_at(1.0, [&] { order.push_back(0); });
    q.schedule_at(2.0, [&] { order.push_back(1); });
    q.schedule_at(3.0, [&] { order.push_back(2); });
    EXPECT_TRUE(q.reschedule(moved, 2.0));
    EXPECT_TRUE(q.reschedule(moved, 2.0)); // again: still behind
    EXPECT_EQ(q.size(), 3u);
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
    EXPECT_FALSE(q.reschedule(moved, 4.0)); // fired: stale
    EXPECT_TRUE(q.empty());
}

TEST_F(EventQueueContract, StaleIdNeverTouchesAReusedSlot)
{
    // A fired and a cancelled event each free a slot, and the next
    // two schedules reuse them. The old ids must match nothing:
    // cancelling or rescheduling them leaves the new occupants alone.
    auto& q = queue_;
    const EventId fired = q.schedule_at(1.0, [] {});
    const EventId cancelled = q.schedule_at(2.0, [] {});
    ASSERT_TRUE(q.pop_and_run());
    q.cancel(cancelled);
    ASSERT_TRUE(q.empty());

    std::vector<int> order;
    const EventId a = q.schedule_at(3.0, [&] { order.push_back(0); });
    const EventId b = q.schedule_at(4.0, [&] { order.push_back(1); });
    for (const EventId stale : {fired, cancelled}) {
        EXPECT_NE(stale, a);
        EXPECT_NE(stale, b);
        q.cancel(stale);
        EXPECT_FALSE(q.reschedule(stale, 10.0));
    }
    EXPECT_EQ(q.size(), 2u);
    while (q.pop_and_run()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST_F(EventQueueContract, TieHeavyDrainKeepsFifoPerTimestamp)
{
    // 100k events on 8 timestamps, interleaved: the shape of many
    // simultaneous barrier releases. Each timestamp's cohort fires in
    // insertion order, and draining stays O(n log n) — a queue that
    // scans a tie cohort per pop is quadratic here.
    constexpr int kEvents = 100000;
    constexpr int kTimes = 8;
    constexpr int kPerTime = kEvents / kTimes;
    auto& q = queue_;
    std::vector<int> fired;
    fired.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i)
        q.schedule_at(static_cast<double>(i % kTimes),
                      [&fired, i] { fired.push_back(i); });
    while (q.pop_and_run()) {
    }
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
    for (int k = 0; k < kEvents; ++k) {
        // k-th pop: timestamp k / kPerTime, cohort position k % kPerTime.
        ASSERT_EQ(fired[static_cast<std::size_t>(k)],
                  (k % kPerTime) * kTimes + k / kPerTime)
            << "pop " << k;
    }
}

namespace {

/**
 * Drive @p ops randomized operations against a (time, seq)-ordered
 * map oracle. Three phases shift the op mix: schedule-heavy (growth),
 * balanced with heavy ties, and pop-heavy (drain). Time offsets mix a
 * small tie-heavy grid, a medium uniform spread, and rare far-future
 * outliers. A reschedule re-keys its event with a fresh seq — the
 * order cancel + schedule_at would give it.
 */
void
randomized_oracle(EventQueue& q, int ops, std::uint64_t seed)
{
    struct Pending {
        EventId id;
        std::uint64_t token;
    };
    using Key = std::pair<double, std::uint64_t>;
    std::map<Key, Pending> oracle;
    std::map<EventId, Key> by_id; // live events by id, O(log n)
    std::vector<std::uint64_t> fired;
    std::vector<EventId> ids; // scheduled and not cancelled (may have fired)
    imc::Rng rng(seed);
    std::uint64_t seq = 0;
    std::uint64_t expected_executed = 0;

    auto draw_time = [&] {
        double when = q.now();
        const auto scale = rng.uniform_index(100);
        if (scale < 70)
            when += static_cast<double>(rng.uniform_index(4)); // ties
        else if (scale < 95)
            when += rng.uniform(0.0, 50.0);
        else
            when += rng.uniform(1.0e5, 1.0e9); // far future
        return when;
    };

    for (int op = 0; op < ops; ++op) {
        // Phase-dependent op weights out of 12 (schedule/pop/cancel/
        // reschedule): grow 7/2/1/2, steady 5/3/2/2, drain 2/6/2/2.
        std::uint64_t w_schedule = 5;
        std::uint64_t w_pop = 3;
        if (op < ops / 4) {
            w_schedule = 7;
            w_pop = 2;
        } else if (op > (3 * ops) / 4) {
            w_schedule = 2;
            w_pop = 6;
        }
        const std::uint64_t w_cancel = 10 - w_schedule - w_pop;
        const auto kind = rng.uniform_index(12);
        if (kind < w_schedule) {
            const double when = draw_time();
            const std::uint64_t token = seq;
            const EventId id = q.schedule_at(
                when, [&fired, token] { fired.push_back(token); });
            oracle.emplace(Key{when, seq}, Pending{id, token});
            by_id.emplace(id, Key{when, seq});
            ++seq;
            ids.push_back(id);
        } else if (kind < w_schedule + w_pop) {
            ASSERT_EQ(q.size(), oracle.size());
            if (oracle.empty()) {
                EXPECT_FALSE(q.pop_and_run());
                continue;
            }
            const auto next = oracle.begin();
            const double when = next->first.first;
            const std::uint64_t expect_token = next->second.token;
            by_id.erase(next->second.id);
            oracle.erase(next);
            const std::size_t before = fired.size();
            ASSERT_TRUE(q.pop_and_run());
            ++expected_executed;
            ASSERT_EQ(fired.size(), before + 1);
            ASSERT_EQ(fired.back(), expect_token);
            ASSERT_DOUBLE_EQ(q.now(), when);
        } else if (kind < w_schedule + w_pop + w_cancel) {
            if (ids.empty())
                continue;
            const auto pick = rng.uniform_index(ids.size());
            const EventId id = ids[pick];
            ids[pick] = ids.back();
            ids.pop_back();
            q.cancel(id); // may already have fired: harmless no-op
            const auto it = by_id.find(id);
            if (it != by_id.end()) {
                oracle.erase(it->second);
                by_id.erase(it);
            }
        } else {
            if (ids.empty())
                continue;
            const EventId id = ids[rng.uniform_index(ids.size())];
            const auto it = by_id.find(id);
            if (it == by_id.end()) {
                // Already fired: a stale id changes nothing.
                ASSERT_FALSE(q.reschedule(id, draw_time()));
            } else if (rng.uniform_index(8) == 0) {
                // Into the past: rejected, and nothing changes.
                EXPECT_THROW(q.reschedule(id, q.now() - 1.0),
                             imc::ConfigError);
            } else {
                const double when = draw_time();
                ASSERT_TRUE(q.reschedule(id, when));
                auto node = oracle.extract(it->second);
                node.key() = Key{when, seq};
                oracle.insert(std::move(node));
                it->second = Key{when, seq};
                ++seq;
            }
        }
        ASSERT_EQ(q.size(), oracle.size());
        ASSERT_EQ(q.empty(), oracle.empty());
        ASSERT_EQ(q.executed(), expected_executed);
    }

    // Drain: the remaining events must come out in oracle order.
    while (!oracle.empty()) {
        const auto next = oracle.begin();
        const std::uint64_t expect_token = next->second.token;
        oracle.erase(next);
        ASSERT_TRUE(q.pop_and_run());
        ASSERT_EQ(fired.back(), expect_token);
    }
    EXPECT_FALSE(q.pop_and_run());
    EXPECT_TRUE(q.empty());
}

} // namespace

TEST_F(EventQueueContract, RandomizedInterleavingMatchesOrderedOracle)
{
    randomized_oracle(queue_, 100000, 20260805);
}

TEST_F(EventQueueContract, RandomizedOracleSecondSeed)
{
    // A second stream reshuffles which phase sees which op mix.
    randomized_oracle(queue_, 30000, 42);
}
