#include "sim/timeline.hpp"

#include <bit>
#include <cstdint>
#include <utility>

#include "common/error.hpp"

namespace imc::sim {

namespace {

// Same fixed-width-hex convention as the RunService canonical key:
// numbers as 16 hex digits (doubles by bit pattern), ';' delimited.
void
put_u64(std::string& out, std::uint64_t v)
{
    static const char* digits = "0123456789abcdef";
    char buf[17];
    for (int i = 15; i >= 0; --i) {
        buf[i] = digits[v & 0xF];
        v >>= 4;
    }
    buf[16] = ';';
    out.append(buf, 17);
}

void
put_double(std::string& out, double v)
{
    put_u64(out, std::bit_cast<std::uint64_t>(v));
}

} // namespace

Timeline::Timeline(int ranks, int iters) : ranks_(ranks), iters_(iters)
{
    require(ranks >= 1, "Timeline: ranks must be >= 1");
    require(iters >= 1, "Timeline: iters must be >= 1");
    cells_.assign(
        static_cast<std::size_t>(ranks) * static_cast<std::size_t>(iters),
        TimelineCell{});
    absent_.assign(static_cast<std::size_t>(ranks), 0);
}

const TimelineCell&
Timeline::cell(int rank, int iter) const
{
    invariant(rank >= 0 && rank < ranks_ && iter >= 0 && iter < iters_,
              "Timeline: cell out of range");
    return cells_[static_cast<std::size_t>(rank) *
                      static_cast<std::size_t>(iters_) +
                  static_cast<std::size_t>(iter)];
}

TimelineCell&
Timeline::cell(int rank, int iter)
{
    return const_cast<TimelineCell&>(
        std::as_const(*this).cell(rank, iter));
}

void
Timeline::mark_absent(int rank)
{
    invariant(rank >= 0 && rank < ranks_,
              "Timeline: absent rank out of range");
    absent_[static_cast<std::size_t>(rank)] = 1;
}

bool
Timeline::absent(int rank) const
{
    invariant(rank >= 0 && rank < ranks_,
              "Timeline: absent rank out of range");
    return absent_[static_cast<std::size_t>(rank)] != 0;
}

int
Timeline::stamped_iters(int rank) const
{
    for (int k = 0; k < iters_; ++k) {
        const TimelineCell& c = cell(rank, k);
        if (c.compute_start < 0.0 || c.compute_end < 0.0 ||
            c.release < 0.0)
            return k;
    }
    return iters_;
}

std::string
Timeline::canonical_bytes() const
{
    std::string out;
    out.reserve(34 + cells_.size() * 51 + absent_.size());
    put_u64(out, static_cast<std::uint64_t>(ranks_));
    put_u64(out, static_cast<std::uint64_t>(iters_));
    for (char a : absent_)
        out += a != 0 ? '1' : '0';
    out += ';';
    for (const TimelineCell& c : cells_) {
        put_double(out, c.compute_start);
        put_double(out, c.compute_end);
        put_double(out, c.release);
    }
    return out;
}

void
TimelineRecorder::reset(int ranks, int iters)
{
    timeline_ = Timeline(ranks, iters);
}

TimelineCell*
TimelineRecorder::cell_at(int rank, int iter)
{
    if (rank < 0 || rank >= timeline_.ranks() || iter < 0 ||
        iter >= timeline_.iters())
        return nullptr;
    return &timeline_.cell(rank, iter);
}

void
TimelineRecorder::compute_start(int rank, int iter, double t)
{
    if (TimelineCell* c = cell_at(rank, iter))
        c->compute_start = t;
}

void
TimelineRecorder::compute_end(int rank, int iter, double t)
{
    if (TimelineCell* c = cell_at(rank, iter))
        c->compute_end = t;
}

void
TimelineRecorder::release(int rank, int iter, double t)
{
    if (TimelineCell* c = cell_at(rank, iter))
        c->release = t;
}

void
TimelineRecorder::mark_absent(int rank)
{
    if (rank >= 0 && rank < timeline_.ranks())
        timeline_.mark_absent(rank);
}

Timeline
TimelineRecorder::take()
{
    Timeline out = std::move(timeline_);
    timeline_ = Timeline{};
    return out;
}

} // namespace imc::sim
