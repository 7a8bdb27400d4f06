#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace imc {

int
resolve_threads(int n)
{
    if (n >= 1)
        return n;
    return std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
}

void
parallel_for(std::size_t n, int threads,
             const std::function<void(std::size_t)>& fn)
{
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    const auto work = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    const auto workers = std::min(static_cast<std::size_t>(threads), n);
    pool.reserve(workers);
    try {
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(work);
    } catch (...) {
        // A thread failed to start: the caller works in its place, so
        // every index still runs and every started thread is joined.
        work();
    }
    for (auto& t : pool)
        t.join();
    for (const auto& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace imc
