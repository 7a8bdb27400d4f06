/**
 * @file
 * Unit tests of the cancellable, reschedulable event queue.
 *
 * The contract suite asserts every ordering, cancellation,
 * rescheduling, tagging and liveness guarantee. The randomized oracle
 * drives 100k+ mixed operations (schedule/pop/cancel/reschedule of
 * callback and tagged events, heavy time ties, far-future outliers,
 * and cancels/reschedules of already-fired ids whose slots have been
 * reused) against a std::map ordered by (time, insertion seq) — the
 * exact order the queue promises, with a reschedule taking a fresh seq
 * as cancel + schedule_at would.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/event_queue.hpp"

using namespace imc::sim;

namespace {

constexpr std::uint32_t kNoTag = EventQueue::kNoTag;

/** Pop the next event and run its callback; false when empty. */
bool
run_next(EventQueue& q)
{
    EventQueue::Fired ev;
    if (!q.pop(ev))
        return false;
    if (ev.cb)
        ev.cb();
    return true;
}

/** Pop every pending event, running callbacks; return their tags. */
std::vector<std::uint32_t>
drain_tags(EventQueue& q)
{
    std::vector<std::uint32_t> tags;
    for (EventQueue::Fired ev; q.pop(ev);) {
        tags.push_back(ev.tag);
        if (ev.cb)
            ev.cb();
    }
    return tags;
}

} // namespace

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
    while (run_next(q)) {
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
    while (run_next(q)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(EventQueueContract, CancelPreventsExecution)
{
    auto& q = queue_;
    bool ran = false;
    const EventId id = q.schedule_at(1.0, [&] { ran = true; });
    q.cancel(id);
    while (run_next(q)) {
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
    ASSERT_TRUE(run_next(q));
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
    run_next(q);
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
    while (run_next(q)) {
    }
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST_F(EventQueueContract, SchedulingIntoThePastThrows)
{
    auto& q = queue_;
    q.schedule_at(5.0, [] {});
    run_next(q);
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
    EXPECT_FALSE(run_next(queue_));
}

TEST_F(EventQueueContract, ExecutedCountsOnlyRealRuns)
{
    auto& q = queue_;
    q.schedule_at(1.0, [] {});
    const EventId id = q.schedule_at(2.0, [] {});
    q.cancel(id);
    while (run_next(q)) {
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
    while (run_next(q)) {
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
    while (run_next(q)) {
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
    while (run_next(q)) {
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
    ASSERT_TRUE(run_next(q));
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
    while (run_next(q)) {
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
    while (run_next(q)) {
    }
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents));
    for (int k = 0; k < kEvents; ++k) {
        // k-th pop: timestamp k / kPerTime, cohort position k % kPerTime.
        ASSERT_EQ(fired[static_cast<std::size_t>(k)],
                  (k % kPerTime) * kTimes + k / kPerTime)
            << "pop " << k;
    }
}

TEST_F(EventQueueContract, TaggedEventsPopInOrderWithCallbackEvents)
{
    // Tagged and callback events share one (time, seq) order; pop
    // hands back each tag, and a tagged event may carry a callback or
    // none.
    auto& q = queue_;
    std::vector<int> order;
    q.schedule_at(2.0, [&] { order.push_back(2); });
    q.schedule_at(1.0, Callback{}, 7);
    q.schedule_at(2.0, [&] { order.push_back(3); }, 9); // tie: FIFO
    q.schedule_at(0.5, [&] { order.push_back(1); });
    q.schedule_at(1.0, Callback{}, 0);
    EXPECT_EQ(drain_tags(q),
              (std::vector<std::uint32_t>{kNoTag, 7, 0, kNoTag, 9}));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.executed(), 5u);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST_F(EventQueueContract, CancelAndRescheduleWorkOnTaggedIds)
{
    auto& q = queue_;
    const auto capture = std::make_shared<int>(0);
    const EventId a = q.schedule_at(1.0, [capture] {}, 1);
    const EventId b = q.schedule_at(2.0, Callback{}, 2);
    q.schedule_at(3.0, Callback{}, 3);
    EXPECT_EQ(capture.use_count(), 2);
    q.cancel(a);
    EXPECT_EQ(capture.use_count(), 1); // the callback died with it
    EXPECT_TRUE(q.reschedule(b, 3.0)); // now queues behind tag 3
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(drain_tags(q), (std::vector<std::uint32_t>{3, 2}));
    EXPECT_EQ(q.executed(), 2u);
}

TEST_F(EventQueueContract, StaleTaggedIdMatchesNothing)
{
    // A fired and a cancelled tagged event free their slots, and new
    // tagged events reuse them: the old ids leave the new ones alone.
    auto& q = queue_;
    const EventId fired = q.schedule_at(1.0, Callback{}, 5);
    const EventId cancelled = q.schedule_at(2.0, Callback{}, 6);
    EventQueue::Fired ev;
    ASSERT_TRUE(q.pop(ev));
    EXPECT_EQ(ev.tag, 5u);
    EXPECT_FALSE(static_cast<bool>(ev.cb));
    q.cancel(cancelled);
    ASSERT_TRUE(q.empty());

    const EventId a = q.schedule_at(3.0, Callback{}, 7);
    const EventId b = q.schedule_at(4.0, Callback{}, 8);
    for (const EventId stale : {fired, cancelled}) {
        EXPECT_NE(stale, a);
        EXPECT_NE(stale, b);
        q.cancel(stale);
        EXPECT_FALSE(q.reschedule(stale, 10.0));
    }
    EXPECT_EQ(drain_tags(q), (std::vector<std::uint32_t>{7, 8}));
    EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

namespace {

/**
 * Drive @p ops randomized operations against a (time, seq)-ordered
 * map oracle. Three phases shift the op mix: schedule-heavy (growth),
 * balanced with heavy ties, and pop-heavy (drain). Time offsets mix a
 * small tie-heavy grid, a medium uniform spread, and rare far-future
 * outliers. A reschedule re-keys its event with a fresh seq — the
 * order cancel + schedule_at would give it. Events cycle through
 * three kinds: a callback, a tag plus a callback, and a bare tag.
 */
void
randomized_oracle(EventQueue& q, int ops, std::uint64_t seed)
{
    struct Pending {
        EventId id;
        std::uint64_t token;
        std::uint32_t tag;
        bool has_cb;
    };
    using Key = std::pair<double, std::uint64_t>;
    std::map<Key, Pending> oracle;
    std::map<EventId, Key> by_id; // live events by id, O(log n)
    std::vector<std::uint64_t> fired;
    std::vector<EventId> ids; // scheduled and not cancelled (may have fired)
    imc::Rng rng(seed);
    std::uint64_t seq = 0;
    std::uint64_t expected_executed = 0;

    // Pop one event and check it is @p want: same tag, and a callback
    // (run here) exactly when it had one, firing its token.
    auto pop_expect = [&](const Pending& want) {
        EventQueue::Fired ev;
        const std::size_t before = fired.size();
        ASSERT_TRUE(q.pop(ev));
        ASSERT_EQ(ev.tag, want.tag);
        ASSERT_EQ(static_cast<bool>(ev.cb), want.has_cb);
        if (!want.has_cb)
            return;
        ev.cb();
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), want.token);
    };

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
            const bool tagged = token % 3 != 0;
            const bool has_cb = token % 3 != 2;
            const std::uint32_t tag =
                tagged ? static_cast<std::uint32_t>(token) : kNoTag;
            Callback cb;
            if (has_cb)
                cb = [&fired, token] { fired.push_back(token); };
            const EventId id = q.schedule_at(when, std::move(cb), tag);
            oracle.emplace(Key{when, seq}, Pending{id, token, tag, has_cb});
            by_id.emplace(id, Key{when, seq});
            ++seq;
            ids.push_back(id);
        } else if (kind < w_schedule + w_pop) {
            ASSERT_EQ(q.size(), oracle.size());
            if (oracle.empty()) {
                EXPECT_FALSE(run_next(q));
                continue;
            }
            const auto next = oracle.begin();
            const double when = next->first.first;
            const Pending want = next->second;
            by_id.erase(want.id);
            oracle.erase(next);
            ASSERT_NO_FATAL_FAILURE(pop_expect(want));
            ++expected_executed;
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
        const Pending want = next->second;
        oracle.erase(next);
        ASSERT_NO_FATAL_FAILURE(pop_expect(want));
    }
    EXPECT_FALSE(run_next(q));
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
