#include "sim/coordination.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace imc::sim {

Barrier::Barrier(Simulation& sim, int size, double cost)
    : sim_(sim), size_(size), cost_(cost)
{
    require(size >= 1, "Barrier: size must be >= 1");
    require(cost >= 0.0, "Barrier: negative cost");
    waiting_.reserve(static_cast<std::size_t>(size));
}

void
Barrier::arrive(Callback resume)
{
    invariant(static_cast<int>(waiting_.size()) < size_,
              "Barrier: more arrivals than participants");
    waiting_.push_back(std::move(resume));
    if (static_cast<int>(waiting_.size()) < size_)
        return;
    // Last arrival: release everyone after the collective latency.
    // schedule() runs nothing, so the waiters can be released in
    // place and the storage kept for the next cycle.
    ++cycles_;
    for (auto& cb : waiting_)
        sim_.schedule(cost_, std::move(cb));
    waiting_.clear();
}

NeighborSync::NeighborSync(Simulation& sim, int size, int halo,
                           double cost)
    : sim_(sim), size_(size), halo_(halo), cost_(cost)
{
    require(size >= 1, "NeighborSync: size must be >= 1");
    require(halo >= 1, "NeighborSync: halo must be >= 1");
    require(cost >= 0.0, "NeighborSync: negative cost");
    arrived_.assign(static_cast<std::size_t>(size), 0);
    pending_.resize(static_cast<std::size_t>(size));
}

void
NeighborSync::arrive(int rank, Callback resume)
{
    require(rank >= 0 && rank < size_,
            "NeighborSync: rank out of range");
    const auto r = static_cast<std::size_t>(rank);
    invariant(!pending_[r],
              "NeighborSync: rank arrived again before release");
    ++arrived_[r];
    pending_[r] = std::move(resume);
    // Only ranks whose neighborhood contains this rank can have become
    // releasable; releases change no arrival count, so one pass over
    // that window settles everything.
    release_ready(std::max(0, rank - halo_),
                  std::min(size_ - 1, rank + halo_));
}

void
NeighborSync::release_ready(int lo, int hi)
{
    for (int c = lo; c <= hi; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (!pending_[ci])
            continue;
        bool ready = true;
        const int nlo = std::max(0, c - halo_);
        const int nhi = std::min(size_ - 1, c + halo_);
        for (int n = nlo; n <= nhi && ready; ++n)
            ready = arrived_[static_cast<std::size_t>(n)] >=
                    arrived_[ci];
        if (!ready)
            continue;
        Callback cb;
        cb.swap(pending_[ci]);
        sim_.schedule(cost_, std::move(cb));
    }
}

int
NeighborSync::arrivals(int rank) const
{
    require(rank >= 0 && rank < size_,
            "NeighborSync: rank out of range");
    return arrived_[static_cast<std::size_t>(rank)];
}

bool
NeighborSync::waiting(int rank) const
{
    require(rank >= 0 && rank < size_,
            "NeighborSync: rank out of range");
    return static_cast<bool>(pending_[static_cast<std::size_t>(rank)]);
}

TaskPool::TaskPool(Simulation& sim,
                   std::vector<std::vector<double>> stages,
                   double shuffle_cost)
    : sim_(sim), stages_(std::move(stages)), shuffle_cost_(shuffle_cost)
{
    require(shuffle_cost >= 0.0, "TaskPool: negative shuffle cost");
    for (const auto& stage : stages_) {
        require(!stage.empty(), "TaskPool: empty stage");
        for (double w : stage)
            require(w >= 0.0, "TaskPool: negative task work");
    }
    finished_ = stages_.empty();
}

void
TaskPool::request(GrantFn cb)
{
    if (finished_ || next_task_ < stages_[stage_].size()) {
        grant(std::move(cb));
    } else {
        // Stage drained but tasks still in flight: park until the next
        // stage opens (or the pool finishes).
        parked_.push_back(std::move(cb));
    }
}

void
TaskPool::complete_task()
{
    invariant(in_flight_ > 0, "TaskPool: completion without a grant");
    --in_flight_;
    maybe_advance();
}

void
TaskPool::grant(GrantFn cb)
{
    Grant g{true, 0.0};
    if (!finished_) {
        invariant(next_task_ < stages_[stage_].size(),
                  "TaskPool: grant from an empty queue");
        g = Grant{false, stages_[stage_][next_task_++]};
        ++in_flight_;
    }
    granted_.push_back({std::move(cb), g});
    sim_.schedule(0.0, [this] { deliver(); });
}

void
TaskPool::deliver()
{
    Granted next = std::move(granted_[granted_head_]);
    if (++granted_head_ == granted_.size()) {
        granted_.clear();
        granted_head_ = 0;
    }
    next.cb(next.grant);
}

void
TaskPool::maybe_advance()
{
    if (finished_ || next_task_ < stages_[stage_].size() || in_flight_ > 0)
        return;
    if (stage_ + 1 >= stages_.size()) {
        ++stage_;
        finished_ = true;
        // Everything parked is released immediately: there is no next
        // stage to wait for.
        for (auto& cb : parked_)
            grant(std::move(cb));
        parked_.clear();
        return;
    }
    // Shuffle: the next stage's tasks appear after the shuffle latency.
    sim_.schedule(shuffle_cost_, [this] { open_stage(); });
}

void
TaskPool::open_stage()
{
    ++stage_;
    next_task_ = 0;
    // Parked workers are served in the order they parked while tasks
    // last; the rest stay parked, in order.
    std::size_t served = 0;
    while (served < parked_.size() && next_task_ < stages_[stage_].size())
        grant(std::move(parked_[served++]));
    parked_.erase(parked_.begin(),
                  parked_.begin() + static_cast<std::ptrdiff_t>(served));
}

} // namespace imc::sim
