#include "runner/sweep.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/cache.h"
#include "core/contracts.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/apps.h"

namespace yukta::runner {

using controllers::RunMetrics;

std::string
schemeId(core::Scheme scheme)
{
    switch (scheme) {
      case core::Scheme::kCoordinatedHeuristic:
        return "coordinated";
      case core::Scheme::kDecoupledHeuristic:
        return "decoupled";
      case core::Scheme::kYuktaHwSsvOsHeuristic:
        return "yukta-hw";
      case core::Scheme::kYuktaFull:
        return "yukta-full";
      case core::Scheme::kDecoupledLqg:
        return "lqg-decoupled";
      case core::Scheme::kMonolithicLqg:
        return "lqg-mono";
    }
    return "unknown";
}

std::optional<core::Scheme>
schemeFromId(const std::string& id)
{
    for (core::Scheme s : core::allSchemes()) {
        if (schemeId(s) == id) {
            return s;
        }
    }
    return std::nullopt;
}

std::vector<RunSpec>
expandSweep(const SweepSpec& spec)
{
    std::vector<RunSpec> runs;
    runs.reserve(spec.schemes.size() * spec.workloads.size() *
                 spec.seeds.size());
    for (core::Scheme scheme : spec.schemes) {
        for (const std::string& workload : spec.workloads) {
            for (std::uint32_t seed : spec.seeds) {
                RunSpec run;
                run.scheme = scheme;
                run.workload = workload;
                run.seed = seed;
                run.max_seconds = spec.max_seconds;
                run.trace_interval = spec.trace_interval;
                run.fault_plan = spec.fault_plan;
                run.supervised = spec.supervised;
                runs.push_back(std::move(run));
            }
        }
    }
    return runs;
}

std::string
runTraceId(std::size_t index, const RunSpec& run)
{
    std::ostringstream os;
    os << std::setw(3) << std::setfill('0') << index << "-"
       << schemeId(run.scheme) << "-" << run.workload << "-s" << run.seed;
    return os.str();
}

platform::Workload
makeWorkload(const std::string& name)
{
    auto mixes = platform::AppCatalog::mixNames();
    if (std::find(mixes.begin(), mixes.end(), name) != mixes.end()) {
        return platform::AppCatalog::getMix(name);
    }
    return platform::Workload(platform::AppCatalog::get(name));
}

std::size_t
SweepResult::countStatus(TaskOutcome::Status status) const
{
    std::size_t n = 0;
    for (const RunRecord& r : records) {
        if (r.status == status) {
            ++n;
        }
    }
    return n;
}

const RunMetrics*
SweepResult::metricsFor(core::Scheme scheme, const std::string& workload,
                        std::uint32_t seed) const
{
    for (const RunRecord& r : records) {
        if (r.scheme == scheme && r.workload == workload &&
            r.seed == seed && r.status == TaskOutcome::Status::kOk) {
            return &r.metrics;
        }
    }
    return nullptr;
}

SweepResult
runAll(const core::Artifacts& artifacts, const std::vector<RunSpec>& runs,
       const RunnerOptions& options)
{
    const bool traced = !options.trace_dir.empty();
    const bool trace_jsonl = options.trace_format == "jsonl" ||
                             options.trace_format == "both";
    const bool trace_chrome = options.trace_format == "chrome" ||
                              options.trace_format == "both";
    if (traced && !trace_jsonl && !trace_chrome) {
        throw std::invalid_argument("runAll: trace_format must be "
                                    "\"jsonl\", \"chrome\", or \"both\"");
    }
    // One sink per run, pre-built so the identity (and therefore the
    // trace content) never depends on which worker executes the run.
    std::vector<std::unique_ptr<obs::TraceSink>> sinks;
    if (traced) {
        sinks.reserve(runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
            sinks.push_back(
                std::make_unique<obs::TraceSink>(runTraceId(i, runs[i])));
        }
    }

    SweepResult result;
    result.records.resize(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        RunRecord& r = result.records[i];
        r.index = i;
        r.scheme = runs[i].scheme;
        r.workload = runs[i].workload;
        r.seed = runs[i].seed;
        r.fault_plan = runs[i].fault_plan;
        r.supervised = runs[i].supervised;
    }

    ProgressReporter progress(options.progress, runs.size());

    std::vector<Task> tasks;
    tasks.reserve(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        tasks.push_back([&, i](const CancelToken& token) {
            const RunSpec& run = runs[i];
            if (token.expired()) {
                throw std::runtime_error(
                    "cancelled before the run started");
            }
            auto system = core::makeSystem(run.scheme, artifacts,
                                           makeWorkload(run.workload),
                                           run.seed);
            if (run.trace_interval > 0.0) {
                system.enableTrace(run.trace_interval);
            }
            // Parsed inside the task so a malformed plan fails only
            // this run (captured in its record), not the whole sweep.
            if (!run.fault_plan.empty()) {
                system.attachFaultInjector(
                    fault::FaultPlan::parse(run.fault_plan));
            }
            if (run.supervised) {
                system.enableSupervisor();
            }
            if (traced) {
                // A retried run must not replay stale events into its
                // fresh attempt's trace.
                sinks[i]->clear();
                system.attachTraceSink(sinks[i].get());
            }
            result.records[i].metrics = system.run(run.max_seconds);
        });
    }

    TaskCallback on_complete;
    if (options.progress != nullptr) {
        on_complete = [&](std::size_t i, const TaskOutcome& outcome) {
            // The record's identity and result fields were written by
            // this same worker; merge the outcome into a copy so the
            // live feed shows the final status.
            RunRecord r = result.records[i];
            r.status = outcome.status;
            r.error = outcome.error;
            r.error_type = outcome.error_type;
            r.attempts = outcome.attempts;
            r.wall_seconds = outcome.wall_seconds;
            progress.report(r);
        };
    }

    RetryPolicy retry;
    retry.max_attempts = options.run_attempts;
    retry.backoff_seconds = options.retry_backoff_seconds;
    std::vector<TaskOutcome> outcomes =
        runOnPool(tasks, options.workers, options.run_timeout_seconds,
                  on_complete, retry);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        RunRecord& r = result.records[i];
        r.status = outcomes[i].status;
        r.error = outcomes[i].error;
        r.error_type = outcomes[i].error_type;
        r.attempts = outcomes[i].attempts;
        r.wall_seconds = outcomes[i].wall_seconds;
        obs::globalMetrics()
            .histogram("runner.run_wall_seconds")
            .observe(r.wall_seconds);
    }

    // Trace files are written post-pool in index order, so their names
    // and contents are independent of worker count and completion
    // order (the same property the JSONL record stream has).
    if (traced) {
        std::filesystem::create_directories(options.trace_dir);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            result.records[i].trace_events =
                static_cast<long long>(sinks[i]->eventCount());
            std::string base = options.trace_dir;
            base += '/';
            base += sinks[i]->runId();
            if (trace_jsonl) {
                std::ostringstream os;
                sinks[i]->writeJsonl(os);
                core::atomicWriteFile(base + ".trace.jsonl", os.str());
            }
            if (trace_chrome) {
                std::ostringstream os;
                sinks[i]->writeChrome(os);
                core::atomicWriteFile(base + ".chrome.json", os.str());
            }
        }
    }

    // Progress is emitted per-run by workers in completion order; the
    // JSONL stream instead gets the records post-hoc in index order,
    // so the file is deterministic regardless of worker count.
    if (options.jsonl != nullptr) {
        for (const RunRecord& r : result.records) {
            writeJsonLine(*options.jsonl, r);
        }
    }

    if (options.emit_metrics) {
        obs::globalMetrics()
            .gauge("contracts.checks")
            .set(static_cast<double>(contracts::checkCount().load()));
        result.metrics_json = obs::globalMetrics().snapshotJson();
    }
    return result;
}

SweepResult
runSweep(const core::Artifacts& artifacts, const SweepSpec& spec,
         const RunnerOptions& options)
{
    return runAll(artifacts, expandSweep(spec), options);
}

}  // namespace yukta::runner
