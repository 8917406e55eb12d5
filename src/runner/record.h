#ifndef YUKTA_RUNNER_RECORD_H_
#define YUKTA_RUNNER_RECORD_H_

/**
 * @file
 * Structured run records for the sweep engine. Every run produces one
 * RunRecord (what was run, what came out, where it came from), which
 * serializes to one JSON line so sweep outputs can be appended,
 * grepped, and aggregated without a parser dependency.
 */

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "controllers/multilayer.h"
#include "core/schemes.h"
#include "runner/pool.h"

namespace yukta::runner {

/** One experiment run: identity, provenance, and results. */
struct RunRecord
{
    std::size_t index = 0;       ///< Position in the expanded sweep.
    core::Scheme scheme = core::Scheme::kCoordinatedHeuristic;
    std::string workload;        ///< App or mix name.
    std::uint32_t seed = 1;
    std::string fault_plan;      ///< Fault plan spec; "" = clean run.
    bool supervised = false;     ///< Supervisor was enabled.
    TaskOutcome::Status status = TaskOutcome::Status::kOk;
    std::string error;           ///< Exception text when status=error.
    std::string error_type;      ///< Exception type when status=error.
    int attempts = 0;            ///< Pool attempts (retries included).
    double wall_seconds = 0.0;   ///< Wall-clock cost of this run.
    long long trace_events = 0;  ///< Structured events captured (0 =
                                 ///< event tracing was off).
    controllers::RunMetrics metrics;  ///< Empty unless status=ok.
};

/**
 * @return @p record as one JSON object on a single line (no trailing
 * newline). The trace is summarized by its sample count; use
 * trace_interval runs directly when the full trace is needed.
 */
std::string toJsonLine(const RunRecord& record);

/** Writes @p record to @p os as a JSONL row (with newline). */
void writeJsonLine(std::ostream& os, const RunRecord& record);

/**
 * Thread-safe progress reporter: one short line per completed run.
 * Null @p os disables reporting (all calls become no-ops).
 */
class ProgressReporter
{
  public:
    /** Reports to @p os (null disables); @p total sizes "k/N". */
    explicit ProgressReporter(std::ostream* os, std::size_t total)
        : os_(os), total_(total)
    {
    }

    /** Reports one completed run; safe from any worker thread. */
    void report(const RunRecord& record);

  private:
    std::ostream* os_;
    std::size_t total_;
    std::size_t done_ = 0;
    std::mutex mutex_;
};

}  // namespace yukta::runner

#endif  // YUKTA_RUNNER_RECORD_H_
