/**
 * @file
 * Contract tests of the shared fan-out (common/parallel.hpp): every
 * index runs exactly once at any thread count, one thread or fewer
 * is a plain loop on the calling thread, and the rethrown error is
 * the lowest failing index's, as in the serial loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

using namespace imc;

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t kN = 37;
    for (const int threads : {1, 2, 4, 8}) {
        std::vector<std::atomic<int>> hits(kN);
        parallel_for(kN, threads, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "index " << i << " at threads " << threads;
    }
    // More threads than indices, and the empty range.
    std::vector<std::atomic<int>> few(3);
    parallel_for(few.size(), 8, [&](std::size_t i) { ++few[i]; });
    for (const auto& h : few)
        EXPECT_EQ(h.load(), 1);
    parallel_for(0, 4, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(ParallelFor, OneThreadOrFewerRunsInOrderOnTheCaller)
{
    const auto caller = std::this_thread::get_id();
    for (const int threads : {-1, 0, 1}) {
        std::vector<std::size_t> order;
        parallel_for(6, threads, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
        EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}))
            << "threads " << threads;
    }
}

TEST(ParallelFor, RethrowsTheLowestFailingIndexAfterRunningAll)
{
    constexpr std::size_t kN = 8;
    for (const int threads : {1, 2, 4, 8}) {
        std::vector<std::atomic<int>> ran(kN);
        try {
            parallel_for(kN, threads, [&](std::size_t i) {
                ++ran[i];
                if (i == 2 || i == 5)
                    throw std::runtime_error("index " +
                                             std::to_string(i));
            });
            FAIL() << "expected an error at threads " << threads;
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "index 2") << "threads " << threads;
        }
        if (threads > 1) {
            for (std::size_t i = 0; i < kN; ++i)
                EXPECT_EQ(ran[i].load(), 1)
                    << "index " << i << " at threads " << threads;
        }
    }
}

TEST(ParallelFor, ResolveThreads)
{
    EXPECT_GE(resolve_threads(0), 1);
    EXPECT_EQ(resolve_threads(3), 3);
    EXPECT_EQ(resolve_threads(1), 1);
}
