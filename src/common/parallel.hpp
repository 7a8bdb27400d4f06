#ifndef IMC_COMMON_PARALLEL_HPP
#define IMC_COMMON_PARALLEL_HPP

/**
 * @file
 * The one short-lived fan-out: run an index range on a few threads
 * and join. Row-parallel profiling, registry prefetch, multi-chain
 * annealing and the delay-wave sweep all go through parallel_for;
 * the long-lived, cache-backed worker pool is RunService's.
 */

#include <cstddef>
#include <functional>

namespace imc {

/** @p n when @p n >= 1; otherwise one per hardware thread (>= 1). */
int resolve_threads(int n);

/**
 * Run fn(i) for every i in [0, n) on min(threads, n) threads, which
 * take indices from a shared counter. With one thread or fewer this
 * is a plain loop on the calling thread, in index order.
 *
 * Threaded, every index runs even after one throws, and each index's
 * exception is kept apart; after the join the exception of the
 * lowest failing index is rethrown. That is the error the serial
 * loop throws, so the error is the same at any thread count.
 */
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

} // namespace imc

#endif // IMC_COMMON_PARALLEL_HPP
