// Worker-pool semantics: index-aligned outcomes at any worker count,
// exception capture, cooperative per-task timeouts, and completion
// callbacks. These properties are what make sweep results
// order-independent, so they are tested directly at the pool level.
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/pool.h"

namespace yukta::runner {
namespace {

TEST(Pool, RunsEveryTaskExactlyOnceAtAnyWorkerCount)
{
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        constexpr std::size_t kTasks = 64;
        std::vector<int> results(kTasks, -1);
        std::atomic<int> calls{0};
        std::vector<Task> tasks;
        for (std::size_t i = 0; i < kTasks; ++i) {
            tasks.push_back([&, i](const CancelToken&) {
                results[i] = static_cast<int>(i * i);
                calls.fetch_add(1);
            });
        }
        auto outcomes = runOnPool(tasks, workers);
        EXPECT_EQ(calls.load(), static_cast<int>(kTasks));
        ASSERT_EQ(outcomes.size(), kTasks);
        for (std::size_t i = 0; i < kTasks; ++i) {
            EXPECT_EQ(outcomes[i].status, TaskOutcome::Status::kOk);
            EXPECT_EQ(results[i], static_cast<int>(i * i));
        }
    }
}

TEST(Pool, SingleTaskRunsOnTheCallingThread)
{
    // The caller is one of the workers, so a lone task (the fleet's
    // lone due synthesis) needs no thread of its own.
    std::thread::id ran_on;
    std::vector<Task> tasks;
    tasks.push_back(
        [&](const CancelToken&) { ran_on = std::this_thread::get_id(); });
    auto outcomes = runOnPool(tasks, 4);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kOk);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Pool, AtMostNumWorkersDistinctThreadsRunTasks)
{
    for (std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
        std::mutex mutex;
        std::set<std::thread::id> threads;
        std::vector<Task> tasks;
        for (int i = 0; i < 32; ++i) {
            tasks.push_back([&](const CancelToken&) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                std::lock_guard<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
            });
        }
        runOnPool(tasks, workers);
        EXPECT_GE(threads.size(), 1u);
        EXPECT_LE(threads.size(), workers);
        if (workers == 1) {
            EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
        }
    }
}

/**
 * Runs two tasks on two workers, each waiting until both workers are
 * inside one, so the caller and the helper run one task each; the
 * completion hook throws on the caller or on the helper. The error
 * must leave runOnPool, and only after the helper's task finished.
 */
void
expectHookErrorAfterTheJoin(bool throw_on_caller)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> entered{0};
    std::atomic<int> finished{0};
    std::vector<Task> tasks;
    for (int i = 0; i < 2; ++i) {
        tasks.push_back([&](const CancelToken&) {
            entered.fetch_add(1);
            while (entered.load() < 2) {
                std::this_thread::yield();
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            finished.fetch_add(1);
        });
    }
    EXPECT_THROW(
        runOnPool(tasks, 2, 0.0,
                  [&](std::size_t, const TaskOutcome&) {
                      if ((std::this_thread::get_id() == caller) ==
                          throw_on_caller) {
                          throw std::runtime_error("hook");
                      }
                  }),
        std::runtime_error);
    EXPECT_EQ(finished.load(), 2);
}

TEST(Pool, ThrowingHookOnTheCallingThreadJoinsHelpersFirst)
{
    expectHookErrorAfterTheJoin(true);
}

TEST(Pool, ThrowingHookOnAHelperThreadIsRethrownAfterTheJoin)
{
    // A helper's error crosses to the calling thread instead of
    // ending the process.
    expectHookErrorAfterTheJoin(false);
}

TEST(Pool, OneThrowingTaskDoesNotKillTheSweep)
{
    std::vector<Task> tasks;
    tasks.push_back([](const CancelToken&) {});
    tasks.push_back([](const CancelToken&) {
        throw std::runtime_error("controller diverged");
    });
    tasks.push_back([](const CancelToken&) { throw 42; });
    tasks.push_back([](const CancelToken&) {});

    auto outcomes = runOnPool(tasks, 4);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kOk);
    EXPECT_EQ(outcomes[1].status, TaskOutcome::Status::kError);
    EXPECT_EQ(outcomes[1].error, "controller diverged");
    EXPECT_EQ(outcomes[2].status, TaskOutcome::Status::kError);
    EXPECT_EQ(outcomes[2].error, "unknown exception");
    EXPECT_EQ(outcomes[3].status, TaskOutcome::Status::kOk);
}

TEST(Pool, CooperativeTimeoutStopsAndMarksTheSlowRun)
{
    std::vector<Task> tasks;
    // A "diverging" run that honors the token.
    tasks.push_back([](const CancelToken& token) {
        const auto give_up =
            // yukta-lint: allow(wall-clock) timeout harness needs real time
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.expired() &&
               // yukta-lint: allow(wall-clock) timeout harness needs real time
               std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    tasks.push_back([](const CancelToken&) {});

    auto outcomes = runOnPool(tasks, 2, /*timeout_seconds=*/0.05);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kTimeout);
    EXPECT_LT(outcomes[0].wall_seconds, 5.0);
    EXPECT_EQ(outcomes[1].status, TaskOutcome::Status::kOk);
}

TEST(Pool, NoDeadlineWhenTimeoutDisabled)
{
    std::vector<Task> tasks;
    tasks.push_back([](const CancelToken& token) {
        EXPECT_FALSE(token.expired());
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_FALSE(token.expired());
    });
    auto outcomes = runOnPool(tasks, 1, 0.0);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kOk);
}

TEST(Pool, CompletionCallbackSeesEveryTaskWithFinalStatus)
{
    constexpr std::size_t kTasks = 16;
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < kTasks; ++i) {
        tasks.push_back([i](const CancelToken&) {
            if (i == 3) {
                throw std::runtime_error("boom");
            }
        });
    }
    std::mutex mutex;
    std::set<std::size_t> seen;
    std::size_t errors = 0;
    auto outcomes = runOnPool(
        tasks, 4, 0.0,
        [&](std::size_t index, const TaskOutcome& outcome) {
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(index);
            if (outcome.status == TaskOutcome::Status::kError) {
                ++errors;
            }
        });
    EXPECT_EQ(seen.size(), kTasks);
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(outcomes[3].status, TaskOutcome::Status::kError);
}

TEST(Pool, StatusNames)
{
    EXPECT_EQ(taskStatusName(TaskOutcome::Status::kOk), "ok");
    EXPECT_EQ(taskStatusName(TaskOutcome::Status::kError), "error");
    EXPECT_EQ(taskStatusName(TaskOutcome::Status::kTimeout), "timeout");
}

TEST(Pool, OutcomesCarryTheExceptionType)
{
    std::vector<Task> tasks;
    tasks.push_back([](const CancelToken&) {
        throw std::runtime_error("controller diverged");
    });
    tasks.push_back([](const CancelToken&) {
        throw std::invalid_argument("bad plan");
    });
    tasks.push_back([](const CancelToken&) { throw 42; });
    tasks.push_back([](const CancelToken&) {});

    auto outcomes = runOnPool(tasks, 2);
    EXPECT_EQ(outcomes[0].error_type, "std::runtime_error");
    EXPECT_EQ(outcomes[1].error_type, "std::invalid_argument");
    EXPECT_EQ(outcomes[2].error_type, "unknown");
    EXPECT_TRUE(outcomes[3].error_type.empty());
    EXPECT_EQ(outcomes[3].attempts, 1);
}

TEST(Pool, RetrySucceedsAfterTransientFailures)
{
    std::atomic<int> calls{0};
    std::vector<Task> tasks;
    tasks.push_back([&](const CancelToken&) {
        if (calls.fetch_add(1) < 2) {
            throw std::runtime_error("transient");
        }
    });
    RetryPolicy retry;
    retry.max_attempts = 3;
    auto outcomes = runOnPool(tasks, 1, 0.0, {}, retry);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kOk);
    EXPECT_EQ(outcomes[0].attempts, 3);
    EXPECT_TRUE(outcomes[0].error.empty());
    EXPECT_TRUE(outcomes[0].error_type.empty());
}

TEST(Pool, RetryExhaustionKeepsTheLastError)
{
    std::atomic<int> calls{0};
    std::vector<Task> tasks;
    tasks.push_back([&](const CancelToken&) {
        calls.fetch_add(1);
        throw std::runtime_error("permanent");
    });
    RetryPolicy retry;
    retry.max_attempts = 3;
    auto outcomes = runOnPool(tasks, 1, 0.0, {}, retry);
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(outcomes[0].status, TaskOutcome::Status::kError);
    EXPECT_EQ(outcomes[0].attempts, 3);
    EXPECT_EQ(outcomes[0].error, "permanent");
    EXPECT_EQ(outcomes[0].error_type, "std::runtime_error");
}

TEST(Pool, NoRetryByDefault)
{
    std::atomic<int> calls{0};
    std::vector<Task> tasks;
    tasks.push_back([&](const CancelToken&) {
        calls.fetch_add(1);
        throw std::runtime_error("boom");
    });
    auto outcomes = runOnPool(tasks, 1);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(outcomes[0].attempts, 1);
}

TEST(Pool, ExceptionTypeNameDemanglesDynamicType)
{
    const std::runtime_error e("x");
    const std::exception& base = e;
    EXPECT_EQ(exceptionTypeName(base), "std::runtime_error");
}

}  // namespace
}  // namespace yukta::runner
