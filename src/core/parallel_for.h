#ifndef YUKTA_CORE_PARALLEL_FOR_H_
#define YUKTA_CORE_PARALLEL_FOR_H_

/**
 * @file
 * Fork-join over an index range: the design-time mu sweep and the
 * runner's worker pool. Idle threads take the next undone index from
 * a shared counter, so uneven work never leaves a thread parked. When
 * each index writes only its own result slot, what a loop computes
 * does not depend on how many threads ran it or in which order.
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace yukta::core {

/**
 * Calls @p body(i) once for every i in [0, @p count) on up to
 * min(@p workers, @p count) threads, the calling thread among them.
 * Every thread is joined before this returns or throws. If bodies
 * throw, the lowest index's exception is rethrown: the one a serial
 * loop would have thrown first. If a thread cannot be started, the
 * threads that did start (and the caller) do its share.
 */
template <typename Body>
void
parallelFor(std::size_t count, std::size_t workers, const Body& body)
{
    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    const std::size_t threads_wanted = std::min(workers, count);
    std::vector<std::thread> threads;
    threads.reserve(threads_wanted);
    for (std::size_t t = 1; t < threads_wanted; ++t) {
        try {
            threads.emplace_back(drain);
        } catch (const std::system_error&) {
            break;  // Short-handed: the drain() below takes the rest.
        }
    }
    drain();
    for (std::thread& t : threads) {
        t.join();
    }
    for (const std::exception_ptr& e : errors) {
        if (e) {
            std::rethrow_exception(e);
        }
    }
}

}  // namespace yukta::core

#endif  // YUKTA_CORE_PARALLEL_FOR_H_
