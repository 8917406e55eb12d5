#ifndef YUKTA_RUNNER_POOL_H_
#define YUKTA_RUNNER_POOL_H_

/**
 * @file
 * Fixed-size worker pool for experiment sweeps, run through
 * core::parallelFor: workers steal runs from a shared counter, so long
 * runs do not serialize behind short ones. Each task gets cooperative
 * cancellation (a deadline token it may poll) and exception capture:
 * one diverging or throwing run is reported in its outcome instead of
 * killing the sweep.
 */

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace yukta::runner {

/**
 * Cooperative cancellation handle passed to every pool task: the
 * task's deadline. Long tasks should poll expired() at convenient
 * boundaries (e.g. once per simulated control period) and return early
 * when it fires.
 */
class CancelToken
{
  public:
    /** A token that never expires. */
    CancelToken() = default;
    /** A token that expires at @p deadline. */
    explicit CancelToken(std::chrono::steady_clock::time_point deadline)
        : deadline_(deadline), has_deadline_(true)
    {
    }

    /** True once the task's deadline has passed. */
    bool expired() const
    {
        return has_deadline_ &&
               std::chrono::steady_clock::now() >= deadline_;
    }

  private:
    std::chrono::steady_clock::time_point deadline_{};
    bool has_deadline_ = false;
};

/** What happened to one pool task. */
struct TaskOutcome
{
    enum class Status
    {
        kOk,       ///< Ran to completion.
        kError,    ///< Threw; .error holds the message.
        kTimeout,  ///< Finished after (or stopped at) its deadline.
    };

    Status status = Status::kOk;
    std::string error;          ///< Exception text for kError.
    std::string error_type;     ///< Demangled exception type for kError.
    int attempts = 0;           ///< Times the task body was entered.
    double wall_seconds = 0.0;  ///< Wall-clock time across attempts.
};

/** @return a human-readable name for @p status. */
std::string taskStatusName(TaskOutcome::Status status);

/** @return the demangled dynamic type name of @p e (best effort). */
std::string exceptionTypeName(const std::exception& e);

/**
 * Bounded retry for transient task failures. Only kError outcomes are
 * retried, and none once the task's deadline has passed (a timeout
 * would just time out again); the task body must therefore be
 * idempotent. Backoff is linear: attempt k sleeps k * backoff_seconds
 * before re-entering the body.
 */
struct RetryPolicy
{
    int max_attempts = 1;         ///< Total tries; <= 1 disables retry.
    double backoff_seconds = 0.0; ///< Linear backoff base.
};

/** A pool task; poll the token to honor timeouts. */
using Task = std::function<void(const CancelToken&)>;

/**
 * Per-task completion hook, called by the worker that ran the task
 * right after its outcome is final. Called concurrently from
 * different workers; the callee synchronizes. If hooks throw, every
 * task still runs, and runOnPool rethrows the lowest task index's
 * exception once every worker has joined.
 */
using TaskCallback =
    std::function<void(std::size_t index, const TaskOutcome& outcome)>;

/**
 * Runs @p tasks on a fixed-size pool and returns outcomes aligned
 * with the task indices (order-independent of execution order).
 *
 * @param tasks the work items; each is invoked exactly once.
 * @param num_workers threads that run tasks, the calling thread among
 *   them: min(num_workers, tasks.size()) - 1 threads are spawned. So
 *   0 or 1 worker, or a single task, runs inline on the calling
 *   thread, useful for determinism baselines.
 * @param timeout_seconds per-task wall-clock deadline; <= 0 disables.
 *   A task whose wall time exceeds the deadline is reported as
 *   kTimeout whether or not it polled the token.
 * @param on_complete optional per-task completion hook.
 * @param retry bounded retry-with-backoff for throwing tasks.
 */
std::vector<TaskOutcome> runOnPool(const std::vector<Task>& tasks,
                                   std::size_t num_workers,
                                   double timeout_seconds = 0.0,
                                   const TaskCallback& on_complete = {},
                                   const RetryPolicy& retry = {});

}  // namespace yukta::runner

#endif  // YUKTA_RUNNER_POOL_H_
