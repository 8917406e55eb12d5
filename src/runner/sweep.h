#ifndef YUKTA_RUNNER_SWEEP_H_
#define YUKTA_RUNNER_SWEEP_H_

/**
 * @file
 * Declarative experiment sweeps over (scheme x workload x seed) on a
 * work-stealing pool.
 *
 * A sweep expands to a deterministic run list, and every run executes
 * live against the given artifact bundle (only the design flow that
 * builds the bundle is cached, see core/cache.h). Aggregated results
 * are index-ordered and therefore independent of worker count and
 * completion order.
 */

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/schemes.h"
#include "platform/workload.h"
#include "runner/record.h"

namespace yukta::runner {

/** Stable short identifier for CLI flags and trace file names. */
std::string schemeId(core::Scheme scheme);

/** Parses a schemeId() string (e.g. "yukta-full"). */
std::optional<core::Scheme> schemeFromId(const std::string& id);

/** One fully-specified experiment run. */
struct RunSpec
{
    core::Scheme scheme = core::Scheme::kCoordinatedHeuristic;
    std::string workload;         ///< App name or Sec. VI-C mix name.
    std::uint32_t seed = 1;
    double max_seconds = 1200.0;  ///< Simulated-time budget.
    double trace_interval = 0.0;  ///< >0 records a trace.
    std::string fault_plan;       ///< fault::FaultPlan spec; "" = none.
    bool supervised = false;      ///< Wrap controllers in a Supervisor.
};

/** A declarative sweep: the cross product of the axes. */
struct SweepSpec
{
    std::vector<core::Scheme> schemes;
    std::vector<std::string> workloads;
    std::vector<std::uint32_t> seeds = {1};
    double max_seconds = 1200.0;
    double trace_interval = 0.0;
    std::string fault_plan;   ///< Applied to every expanded run.
    bool supervised = false;  ///< Applied to every expanded run.
};

/**
 * Expands the cross product in deterministic scheme-major order:
 * schemes x workloads x seeds.
 */
std::vector<RunSpec> expandSweep(const SweepSpec& spec);

/** Resolves an app or mix name to a runnable workload. */
platform::Workload makeWorkload(const std::string& name);

/**
 * @return the stable per-run file/run identifier used for event
 * traces: "NNN-<scheme>-<workload>-sSEED" with a zero-padded index.
 */
std::string runTraceId(std::size_t index, const RunSpec& run);

/** Engine knobs. */
struct RunnerOptions
{
    std::size_t workers = 1;     ///< 0/1 = run inline, no threads.
    double run_timeout_seconds = 0.0;  ///< Wall clock per run; <=0 off.
    std::ostream* progress = nullptr;  ///< Live one-line-per-run feed.
    std::ostream* jsonl = nullptr;     ///< Records as JSONL (post-run,
                                       ///< index order).
    int run_attempts = 1;              ///< Retries per throwing run.
    double retry_backoff_seconds = 0.0;  ///< Linear backoff base.

    /**
     * Non-empty = write one per-tick structured event trace per run
     * into this directory (created if absent). The trace files are
     * written post-hoc in index order and are bit-identical
     * regardless of worker count.
     */
    std::string trace_dir;

    /** Trace file format: "jsonl", "chrome", or "both". */
    std::string trace_format = "jsonl";

    /**
     * Snapshot the global metrics registry (retry counts, wall-time
     * histograms, contract-check count) into
     * SweepResult::metrics_json after the sweep. Off by default: the
     * snapshot includes wall-clock-derived values, so it is the one
     * sweep output that is NOT deterministic.
     */
    bool emit_metrics = false;
};

/** Aggregated sweep output; records are index-ordered. */
struct SweepResult
{
    std::vector<RunRecord> records;

    /**
     * Metrics-registry snapshot (JSON object); empty unless
     * RunnerOptions::emit_metrics was set.
     */
    std::string metrics_json;

    /** @return record count with the given status. */
    std::size_t countStatus(TaskOutcome::Status status) const;

    /**
     * @return the metrics for (scheme, workload, seed), or nullptr
     * when that run is absent or did not finish with status ok.
     */
    const controllers::RunMetrics* metricsFor(core::Scheme scheme,
                                              const std::string& workload,
                                              std::uint32_t seed = 1) const;
};

/**
 * Runs every expanded run of @p spec against @p artifacts on a
 * work-stealing pool and returns index-ordered records. Individual
 * run failures (throw/timeout) are captured in the records; the
 * sweep itself always completes.
 */
SweepResult runSweep(const core::Artifacts& artifacts,
                     const SweepSpec& spec,
                     const RunnerOptions& options = {});

/** As runSweep, for an explicit run list (already expanded). */
SweepResult runAll(const core::Artifacts& artifacts,
                   const std::vector<RunSpec>& runs,
                   const RunnerOptions& options = {});

}  // namespace yukta::runner

#endif  // YUKTA_RUNNER_SWEEP_H_
