#include "runner/pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "obs/metrics.h"

namespace yukta::runner {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Executes tasks[i] for every i handed out by the shared counter.
 * The atomic fetch-and-increment is the "stealing": an idle worker
 * grabs the next undone run regardless of how the sweep was sliced,
 * so load imbalance never leaves a worker parked.
 */
void
workerLoop(const std::vector<Task>& tasks, std::atomic<std::size_t>& next,
           std::vector<TaskOutcome>& outcomes, double timeout_seconds,
           const TaskCallback& on_complete, const RetryPolicy& retry)
{
    for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) {
            return;
        }
        TaskOutcome& out = outcomes[i];
        const Clock::time_point start = Clock::now();
        const bool has_deadline = timeout_seconds > 0.0;
        const Clock::time_point deadline =
            has_deadline ? start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(timeout_seconds))
                         : Clock::time_point{};
        const CancelToken token =
            has_deadline ? CancelToken(deadline) : CancelToken();
        const int max_attempts = std::max(1, retry.max_attempts);
        for (;;) {
            ++out.attempts;
            out.error.clear();
            out.error_type.clear();
            try {
                tasks[i](token);
                out.status = TaskOutcome::Status::kOk;
            } catch (const std::exception& e) {
                out.status = TaskOutcome::Status::kError;
                out.error = e.what();
                out.error_type = exceptionTypeName(e);
            } catch (...) {
                out.status = TaskOutcome::Status::kError;
                out.error = "unknown exception";
                out.error_type = "unknown";
            }
            if (out.status != TaskOutcome::Status::kError ||
                out.attempts >= max_attempts || token.expired()) {
                break;
            }
            obs::globalMetrics().counter("runner.retries").add(1);
            if (retry.backoff_seconds > 0.0) {
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    retry.backoff_seconds * out.attempts));
            }
        }
        const Clock::time_point end = Clock::now();
        out.wall_seconds =
            std::chrono::duration<double>(end - start).count();
        if (out.status == TaskOutcome::Status::kOk && has_deadline &&
            end >= deadline) {
            out.status = TaskOutcome::Status::kTimeout;
        }
        if (out.status == TaskOutcome::Status::kTimeout) {
            obs::globalMetrics().counter("runner.timeouts").add(1);
        }
        if (on_complete) {
            on_complete(i, out);
        }
    }
}

}  // namespace

std::string
exceptionTypeName(const std::exception& e)
{
    const char* raw = typeid(e).name();
#if defined(__GNUG__)
    int status = 0;
    std::unique_ptr<char, void (*)(void*)> demangled(
        abi::__cxa_demangle(raw, nullptr, nullptr, &status), std::free);
    if (status == 0 && demangled) {
        return demangled.get();
    }
#endif
    return raw;
}

std::string
taskStatusName(TaskOutcome::Status status)
{
    switch (status) {
      case TaskOutcome::Status::kOk:
        return "ok";
      case TaskOutcome::Status::kError:
        return "error";
      case TaskOutcome::Status::kTimeout:
        return "timeout";
    }
    return "unknown";
}

std::vector<TaskOutcome>
runOnPool(const std::vector<Task>& tasks, std::size_t num_workers,
          double timeout_seconds, const TaskCallback& on_complete,
          const RetryPolicy& retry)
{
    std::vector<TaskOutcome> outcomes(tasks.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        workerLoop(tasks, next, outcomes, timeout_seconds, on_complete,
                   retry);
    };

    // The calling thread is one of the workers: it would only block in
    // join() otherwise, and a lone task then runs right here.
    const std::size_t n = std::min(num_workers, tasks.size());
    std::vector<std::thread> helpers;
    helpers.reserve(n);
    for (std::size_t w = 1; w < n; ++w) {
        try {
            helpers.emplace_back(work);
        } catch (const std::system_error&) {
            break;  // Short-handed: the caller's loop takes the rest.
        }
    }
    // Only a throwing on_complete can escape the caller's loop; the
    // helpers still use this frame's state, so join them first.
    std::exception_ptr hook_error;
    try {
        work();
    } catch (...) {
        hook_error = std::current_exception();
    }
    for (std::thread& t : helpers) {
        t.join();
    }
    if (hook_error) {
        std::rethrow_exception(hook_error);
    }
    return outcomes;
}

}  // namespace yukta::runner
