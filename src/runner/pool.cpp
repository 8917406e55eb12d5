#include "runner/pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "core/parallel_for.h"
#include "obs/metrics.h"

namespace yukta::runner {

namespace {

using Clock = std::chrono::steady_clock;

/** Runs @p task to its final outcome in @p out (timeouts, retries). */
void
runTask(const Task& task, TaskOutcome& out, double timeout_seconds,
        const RetryPolicy& retry)
{
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
            task(token);
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
    out.wall_seconds = std::chrono::duration<double>(end - start).count();
    if (out.status == TaskOutcome::Status::kOk && has_deadline &&
        end >= deadline) {
        out.status = TaskOutcome::Status::kTimeout;
    }
    if (out.status == TaskOutcome::Status::kTimeout) {
        obs::globalMetrics().counter("runner.timeouts").add(1);
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
    core::parallelFor(tasks.size(), num_workers, [&](std::size_t i) {
        runTask(tasks[i], outcomes[i], timeout_seconds, retry);
        if (on_complete) {
            on_complete(i, outcomes[i]);
        }
    });
    return outcomes;
}

}  // namespace yukta::runner
