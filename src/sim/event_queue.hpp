#ifndef IMC_SIM_EVENT_QUEUE_HPP
#define IMC_SIM_EVENT_QUEUE_HPP

/**
 * @file
 * The time-ordered event queue of the discrete-event engine.
 *
 * Events fire in ascending (time, insertion-seq) order, so ties in
 * time break by insertion order (FIFO), which makes zero-latency
 * chains (barrier releases, task hand-offs) behave deterministically.
 *
 * An indexed 4-ary heap: every event owns a slot in a dense,
 * free-listed array holding its callback and its current heap
 * position, and each heap entry points back at its slot. An EventId
 * names a slot plus the slot's generation, so cancel() and
 * reschedule() find their entry in O(1) and then sift it in place in
 * O(log n) — no hash map, no tombstones — while a stale id (fired or
 * cancelled, its slot since reused) matches nothing. Cost does not
 * depend on how many events share a timestamp.
 *
 * The queue is a deterministic pure function of its operation
 * sequence: nothing it decides depends on pointer values, hashes or
 * wall clock.
 */

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace imc::sim {

/** A cancellable, reschedulable priority queue of timed callbacks. */
class EventQueue {
  public:
    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedule a callback at an absolute time.
     *
     * @param time absolute simulation time, must be >= now()
     * @param cb   continuation to invoke
     * @return     handle for cancel() and reschedule()
     */
    EventId schedule_at(double time, Callback cb);

    /**
     * Cancel a pending event. Cancelling an already-fired or
     * already-cancelled event is a harmless no-op.
     */
    void cancel(EventId id);

    /**
     * Move a pending event to @p time, keeping its callback and id.
     * The event takes a fresh insertion seq, so it fires exactly
     * where cancel() followed by schedule_at() would have put it.
     *
     * @param time absolute simulation time, must be >= now()
     * @return     false (and nothing changes) if @p id already fired
     *             or was cancelled
     */
    bool reschedule(EventId id, double time);

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live (pending, uncancelled) events. */
    std::size_t size() const { return heap_.size(); }

    /** Current simulation time (time of the last popped event). */
    double now() const { return now_; }

    /**
     * Pop and run the earliest live event, advancing now().
     *
     * @return false if the queue was empty (nothing ran)
     */
    bool pop_and_run();

    /** Total events executed (excludes cancelled). */
    std::uint64_t executed() const { return executed_; }

    /** Approximate heap bytes held by the slot array and the heap. */
    std::size_t approx_bytes() const;

  private:
    /**
     * One event's storage. The generation is odd while the slot holds
     * a live event and even while it is free, so only the id issued
     * for the current occupant matches it (a stale id could match
     * again only after 2^31 reuses of its slot).
     */
    struct Slot {
        Callback cb;
        std::uint32_t generation = 0;
        /** Heap index while live; next free slot while free. */
        std::uint32_t pos = 0;
    };

    /** A heap entry: the event's order key and its slot. */
    struct Entry {
        double time;
        std::uint64_t seq;
        std::uint32_t slot;

        /** Fires first: earlier time, then earlier seq (FIFO). */
        bool operator<(const Entry& o) const
        {
            return time < o.time || (time == o.time && seq < o.seq);
        }
    };

    /** Slot index of a live event, or kNone if @p id is stale. */
    std::uint32_t live_slot(EventId id) const;

    /** Return a slot to the free list, retiring its id. */
    void release(std::uint32_t slot);

    /** Drop the heap entry at @p pos, refilling the hole. */
    void erase_at(std::size_t pos);

    /** Restore heap order around @p pos after its key changed. */
    void fix(std::size_t pos);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);

    /** Store @p e at heap index @p pos and update its back-pointer. */
    void place(std::size_t pos, const Entry& e);

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    std::vector<Slot> slots_;
    std::vector<Entry> heap_;
    std::uint32_t free_head_ = kNone;
    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace imc::sim

#endif // IMC_SIM_EVENT_QUEUE_HPP
