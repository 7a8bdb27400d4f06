/**
 * @file
 * Heap allocations per simulated event on the short-run path.
 *
 * The paper's profiling campaign is thousands of short solo runs, so
 * the per-event work of the app drivers, the barrier and the latency
 * recorder must not allocate. This binary replaces the global
 * operator new with a counting one (which is why it is a binary of
 * its own: the replacement is process-global), runs each app template
 * solo at its catalog length and at twice that, and checks that the
 * extra events cost fewer than one allocation per 20 events. Set-up
 * allocations (tenants, procs, streams, vectors sized once) appear in
 * both runs and cancel out. A timing span must likewise allocate
 * nothing while observability is off: the scheduler opens two or
 * three per event.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/obs.hpp"
#include "workload/app.hpp"
#include "workload/catalog.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void*
counted_alloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void*
counted_alloc_or_throw(std::size_t n)
{
    if (void* p = counted_alloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned replaceable form is replaced, so each allocation
// and its release pair malloc with free even where a sanitizer
// runtime supplies the forms left out.
// imc-lint: allow(banned-new-delete): counting global allocator
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
// imc-lint: allow(banned-new-delete): counting global allocator
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
// imc-lint: allow(banned-new-delete): counting global allocator
void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}
// imc-lint: allow(banned-new-delete): counting global allocator
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete(void* p) noexcept { std::free(p); }
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete[](void* p) noexcept { std::free(p); }
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
// imc-lint: allow(banned-new-delete): counting global allocator
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

using namespace imc;
using namespace imc::workload;

namespace {

struct RunCost {
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
};

/** Launch @p spec alone on four private8 nodes and run it dry. */
RunCost
run_solo(const AppSpec& spec)
{
    const std::uint64_t before = g_allocs.load();
    sim::Simulation sim(sim::ClusterSpec::private8());
    LaunchOptions opts;
    opts.nodes = {0, 1, 2, 3};
    opts.procs_per_node = 4;
    opts.rng = Rng(7);
    const auto app = launch(sim, spec, std::move(opts));
    sim.run();
    EXPECT_TRUE(app->done());
    return {g_allocs.load() - before, sim.events_executed()};
}

/** Fewer than one allocation per 20 of the events @p twice adds. */
void
expect_allocation_free_events(const AppSpec& once, const AppSpec& twice)
{
    const RunCost a = run_solo(once);
    const RunCost b = run_solo(twice);
    ASSERT_GT(b.events, a.events);
    const std::uint64_t extra_events = b.events - a.events;
    const std::uint64_t extra_allocs =
        b.allocs > a.allocs ? b.allocs - a.allocs : 0;
    EXPECT_LT(extra_allocs * 20, extra_events)
        << "default length: " << a.allocs << " allocations over "
        << a.events << " events; twice that: " << b.allocs
        << " allocations over " << b.events << " events";
}

} // namespace

TEST(AllocPerEvent, BspSegments)
{
    const AppSpec& once = find_app("M.milc");
    AppSpec twice = once;
    twice.bsp.iterations *= 2;
    expect_allocation_free_events(once, twice);
}

TEST(AllocPerEvent, BatchSegments)
{
    const AppSpec& once = find_app("C.gcc");
    AppSpec twice = once;
    twice.batch.segments *= 2;
    twice.batch.total_work *= 2.0;
    expect_allocation_free_events(once, twice);
}

TEST(AllocPerEvent, TaskPoolTasks)
{
    const AppSpec& once = find_app("H.KM");
    AppSpec twice = once;
    twice.pool.stages *= 2;
    expect_allocation_free_events(once, twice);
}

TEST(AllocPerEvent, ServiceRequests)
{
    const AppSpec& once = find_app("V.mc");
    AppSpec twice = once;
    twice.serve.duration *= 2.0;
    expect_allocation_free_events(once, twice);
}

TEST(AllocDisabledObs, SpansWithLongNamesAllocateNothing)
{
    // Both names are past libstdc++'s 15-character inline string.
    obs::set_enabled(false);
    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 1000; ++i) {
        IMC_OBS_SPAN(choose, "sched.event.choose");
        IMC_OBS_SPAN(execute, "runservice.execute");
    }
    EXPECT_EQ(g_allocs.load() - before, 0u);
}
