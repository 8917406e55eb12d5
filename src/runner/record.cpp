#include "runner/record.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/trace.h"

namespace yukta::runner {

using obs::jsonEscape;

std::string
toJsonLine(const RunRecord& r)
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"index\":" << r.index
       << ",\"scheme\":\"" << jsonEscape(core::schemeName(r.scheme)) << "\""
       << ",\"workload\":\"" << jsonEscape(r.workload) << "\""
       << ",\"seed\":" << r.seed
       << ",\"status\":\"" << taskStatusName(r.status) << "\""
       << ",\"wall_seconds\":" << r.wall_seconds
       << ",\"attempts\":" << r.attempts
       << ",\"exec_time\":" << r.metrics.exec_time
       << ",\"energy\":" << r.metrics.energy
       << ",\"exd\":" << r.metrics.exd
       << ",\"completed\":" << (r.metrics.completed ? "true" : "false")
       << ",\"emergency_time\":" << r.metrics.emergency_time
       << ",\"periods\":" << r.metrics.periods
       << ",\"trace_samples\":" << r.metrics.trace.size()
       << ",\"violation_time\":" << r.metrics.violation_time
       << ",\"supervised\":" << (r.supervised ? "true" : "false");
    if (!r.fault_plan.empty()) {
        os << ",\"fault_plan\":\"" << jsonEscape(r.fault_plan) << "\""
           << ",\"faults_ticks\":" << r.metrics.faults.corrupted_ticks
           << ",\"faults_fields\":" << r.metrics.faults.corrupted_fields
           << ",\"faults_actuator\":" << r.metrics.faults.actuator_faults
           << ",\"faults_dropped_ticks\":"
           << r.metrics.faults.dropped_ticks;
    }
    if (r.supervised) {
        const auto& sup = r.metrics.supervisor;
        os << ",\"sup_transitions\":" << sup.transitions()
           << ",\"sup_invalid_ticks\":" << sup.invalid_ticks
           << ",\"sup_repaired_fields\":" << sup.repaired_fields
           << ",\"sup_repaired_commands\":" << sup.repaired_commands
           << ",\"sup_skipped_ticks\":" << sup.skipped_ticks
           << ",\"sup_time_degraded\":" << sup.timeDegraded();
    }
    if (r.trace_events > 0) {
        os << ",\"trace_events\":" << r.trace_events;
    }
    if (!r.error.empty()) {
        os << ",\"error\":\"" << jsonEscape(r.error) << "\"";
    }
    if (!r.error_type.empty()) {
        os << ",\"error_type\":\"" << jsonEscape(r.error_type) << "\"";
    }
    os << "}";
    return os.str();
}

void
writeJsonLine(std::ostream& os, const RunRecord& record)
{
    os << toJsonLine(record) << "\n";
}

void
ProgressReporter::report(const RunRecord& r)
{
    if (os_ == nullptr) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    *os_ << "[" << done_ << "/" << total_ << "] "
         << core::schemeName(r.scheme) << " | " << r.workload << " | seed "
         << r.seed << " | " << taskStatusName(r.status) << " | "
         << std::fixed << std::setprecision(1) << r.wall_seconds << "s"
         << std::endl;
}

}  // namespace yukta::runner
