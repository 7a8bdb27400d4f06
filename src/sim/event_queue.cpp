#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace imc::sim {

namespace {

/** Heap arity: half the depth of a binary heap. */
constexpr std::size_t kArity = 4;

/**
 * Times this far behind now() still count as now: computed completion
 * times carry floating-point slack.
 */
constexpr double kPastSlack = 1e-12;

} // namespace

EventId
EventQueue::schedule_at(double time, Callback cb, std::uint32_t tag)
{
    require(time >= now_ - kPastSlack,
            "EventQueue: cannot schedule into the past");
    require(cb || tag != kNoTag, "EventQueue: null callback");
    std::uint32_t slot = free_head_;
    if (slot != kNone) {
        free_head_ = slots_[slot].pos;
    } else {
        require(slots_.size() < kNone, "EventQueue: too many events");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        callbacks_.emplace_back();
    }
    callbacks_[slot] = std::move(cb);
    const std::uint32_t generation = ++slots_[slot].generation; // odd
    heap_.push_back(Entry{time, next_seq_++, slot, tag});
    sift_up(heap_.size() - 1);
    return (EventId{generation} << 32) | slot;
}

void
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = live_slot(id);
    if (slot == kNone)
        return; // already fired or cancelled: harmless no-op
    erase_at(slots_[slot].pos);
    release(slot);
}

bool
EventQueue::reschedule(EventId id, double time)
{
    require(time >= now_ - kPastSlack,
            "EventQueue: cannot schedule into the past");
    const std::uint32_t slot = live_slot(id);
    if (slot == kNone)
        return false;
    const std::size_t pos = slots_[slot].pos;
    heap_[pos].time = time;
    heap_[pos].seq = next_seq_++;
    fix(pos);
    return true;
}

bool
EventQueue::pop(Fired& out)
{
    if (heap_.empty())
        return false;
    const Entry top = heap_.front();
    erase_at(0);
    out.tag = top.tag;
    out.cb = std::move(callbacks_[top.slot]);
    release(top.slot);
    invariant(top.time >= now_ - kPastSlack,
              "EventQueue: time went backwards");
    now_ = std::max(now_, top.time);
    ++executed_;
    return true;
}

std::size_t
EventQueue::approx_bytes() const
{
    return slots_.capacity() * sizeof(Slot) +
           callbacks_.capacity() * sizeof(Callback) +
           heap_.capacity() * sizeof(Entry);
}

std::uint32_t
EventQueue::live_slot(EventId id) const
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || generation % 2 == 0 ||
        slots_[slot].generation != generation)
        return kNone;
    return slot;
}

void
EventQueue::release(std::uint32_t slot)
{
    callbacks_[slot] = nullptr;
    Slot& s = slots_[slot];
    ++s.generation; // even: free
    s.pos = free_head_;
    free_head_ = slot;
}

void
EventQueue::erase_at(std::size_t pos)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return; // the erased entry was the last one
    place(pos, last);
    fix(pos);
}

void
EventQueue::fix(std::size_t pos)
{
    if (pos > 0 && heap_[pos] < heap_[(pos - 1) / kArity])
        sift_up(pos);
    else
        sift_down(pos);
}

void
EventQueue::sift_up(std::size_t pos)
{
    const Entry e = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / kArity;
        if (!(e < heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
EventQueue::sift_down(std::size_t pos)
{
    const Entry e = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = pos * kArity + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (heap_[c] < heap_[best])
                best = c;
        }
        if (!(heap_[best] < e))
            break;
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, e);
}

void
EventQueue::place(std::size_t pos, const Entry& e)
{
    heap_[pos] = e;
    slots_[e.slot].pos = static_cast<std::uint32_t>(pos);
}

} // namespace imc::sim
