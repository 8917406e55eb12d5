#ifndef YUKTA_TESTS_SUPPORT_TRACE_DIFF_H_
#define YUKTA_TESTS_SUPPORT_TRACE_DIFF_H_

/**
 * @file
 * Field-by-field trace comparison for the golden-trace regression
 * suite (tests/golden/): finds the *first* divergence between two
 * traces — in event order, which is tick order — and describes it
 * precisely (tick, layer, kind, field, both values), so a regression
 * report points at the first control period where behavior changed
 * rather than at a wall of differing lines.
 */

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace yukta::obs {

/** The first point where two traces disagree. */
struct TraceDivergence
{
    std::size_t event_index = 0;  ///< Index into the event stream.
    int tick = 0;                 ///< Control period of the event.
    std::string layer;            ///< Layer of the diverging event.
    std::string kind;             ///< Kind of the diverging event.
    std::string field;  ///< Field name; "" = identity/shape mismatch.
    std::string expected;  ///< Value (or description) in trace A.
    std::string actual;    ///< Value (or description) in trace B.
};

/**
 * Compares @p expected and @p actual event-by-event, each event
 * field-by-field. @return the first divergence, or std::nullopt when
 * the traces are identical.
 */
std::optional<TraceDivergence>
diffTraces(const std::vector<TraceEvent>& expected,
           const std::vector<TraceEvent>& actual);

/**
 * Reads two JSONL traces (TraceSink::writeJsonl format) and diffs
 * them. Unparseable input is reported as a divergence at the failing
 * side's first bad line rather than an exception.
 */
std::optional<TraceDivergence> diffJsonlStreams(std::istream& expected,
                                                std::istream& actual);

/** @return @p d as a one-paragraph human-readable report. */
std::string describeDivergence(const TraceDivergence& d);

}  // namespace yukta::obs

#endif  // YUKTA_TESTS_SUPPORT_TRACE_DIFF_H_
