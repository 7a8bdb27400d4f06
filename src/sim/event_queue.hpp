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
 * free-listed array holding its generation and its current heap
 * position, and each heap entry points back at its slot. An EventId
 * names a slot plus the slot's generation, so cancel() and
 * reschedule() find their entry in O(1) and then sift it in place in
 * O(log n) — no hash map, no tombstones — while a stale id (fired or
 * cancelled, its slot since reused) matches nothing. Cost does not
 * depend on how many events share a timestamp.
 *
 * State is grouped by access. A sift moves 24-byte heap entries and
 * rewrites their 8-byte back-pointers; the callbacks, which only
 * schedule and pop touch, sit in a separate cold array. An event may
 * carry a 32-bit tag in its heap entry, so a caller can dispatch an
 * event of its own kind (the engine's proc completions) without
 * wrapping it in a callback.
 *
 * The queue is a deterministic pure function of its operation
 * sequence: nothing it decides depends on pointer values, hashes or
 * wall clock.
 */

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace imc::sim {

/** A cancellable, reschedulable priority queue of timed events. */
class EventQueue {
  public:
    /** The tag of an event that carries none. */
    static constexpr std::uint32_t kNoTag = 0xFFFFFFFFu;

    /** A popped event, for the caller to dispatch. */
    struct Fired {
        /** The event's tag, or kNoTag. */
        std::uint32_t tag = kNoTag;
        /** The event's callback; may be empty for a tagged event. */
        Callback cb;
    };

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedule an event at an absolute time.
     *
     * @param time absolute simulation time, must be >= now()
     * @param cb   continuation to invoke; required unless @p tag is set
     * @param tag  caller-defined tag handed back by pop(), or kNoTag
     * @return     handle for cancel() and reschedule()
     */
    EventId schedule_at(double time, Callback cb,
                        std::uint32_t tag = kNoTag);

    /**
     * Cancel a pending event, destroying its callback. Cancelling an
     * already-fired or already-cancelled event is a harmless no-op.
     */
    void cancel(EventId id);

    /**
     * Move a pending event to @p time, keeping its callback, tag and
     * id. The event takes a fresh insertion seq, so it fires exactly
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
     * Remove the earliest live event, advance now() to its time and
     * count it as executed. The caller dispatches it: runs its tag's
     * action, if any, then its callback, if any.
     *
     * @param out receives the event's tag and callback
     * @return    false (and nothing changes) if the queue was empty
     */
    bool pop(Fired& out);

    /** Total events popped (excludes cancelled). */
    std::uint64_t executed() const { return executed_; }

    /** Approximate heap bytes held by the slot arrays and the heap. */
    std::size_t approx_bytes() const;

  private:
    /**
     * One event's index record. The generation is odd while the slot
     * holds a live event and even while it is free, so only the id
     * issued for the current occupant matches it (a stale id could
     * match again only after 2^31 reuses of its slot).
     */
    struct Slot {
        std::uint32_t generation = 0;
        /** Heap index while live; next free slot while free. */
        std::uint32_t pos = 0;
    };

    /** A heap entry: the event's order key, its slot and its tag. */
    struct Entry {
        double time;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t tag;

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
    std::vector<Callback> callbacks_; // by slot; cold
    std::vector<Entry> heap_;
    std::uint32_t free_head_ = kNone;
    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace imc::sim

#endif // IMC_SIM_EVENT_QUEUE_HPP
