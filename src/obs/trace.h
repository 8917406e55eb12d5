#ifndef YUKTA_OBS_TRACE_H_
#define YUKTA_OBS_TRACE_H_

/**
 * @file
 * Deterministic per-tick structured tracing for the controller stack.
 *
 * A TraceSink accumulates TraceEvents keyed by (tick, layer, kind) —
 * never by wall clock — so the trace of a run is a pure function of
 * its configuration: bit-identical across machines, worker counts,
 * and repetitions. Events hold an *ordered* list of fields whose
 * values are pre-rendered canonical JSON fragments (numbers via
 * "%.17g", so every double round-trips exactly). Determinism rules
 * are documented in DESIGN.md §9; the golden-trace regression suite
 * (tests/golden/) depends on them.
 *
 * Writers: JSONL (one event per line, the canonical diffable form)
 * and Chrome trace_event JSON (chrome://tracing / Perfetto timeline
 * viewing; timestamps are simulated microseconds).
 */

#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace yukta::obs {

/**
 * @return @p v rendered with enough digits ("%.17g") that parsing the
 * result recovers the exact double; non-finite values render as the
 * JSON strings "nan" / "inf" / "-inf".
 */
std::string canonicalNumber(double v);

/**
 * @return @p s escaped for a JSON string value: quotes, backslashes
 * and control bytes are escaped; every other byte, UTF-8 included,
 * passes through unchanged.
 */
std::string jsonEscape(const std::string& s);

/** One structured trace event: identity plus ordered fields. */
class TraceEvent
{
  public:
    TraceEvent() = default;

    /** Builds an event at (@p tick, @p time) for @p layer / @p kind. */
    TraceEvent(int tick, double time, std::string layer, std::string kind);

    /** Appends a double field (canonical rendering). */
    TraceEvent& num(const std::string& key, double v);

    /** Appends an integer field. */
    TraceEvent& integer(const std::string& key, long long v);

    /** Appends a string field (JSON-escaped on output). */
    TraceEvent& str(const std::string& key, const std::string& v);

    /** Appends a numeric-array field (canonical rendering). */
    TraceEvent& vec(const std::string& key, const std::vector<double>& v);

    /** Appends a 0/1 flag-array field. */
    TraceEvent& flags(const std::string& key, const std::vector<int>& v);

    /** Identity accessors. */
    int tick() const { return tick_; }
    double time() const { return time_; }
    const std::string& layer() const { return layer_; }
    const std::string& kind() const { return kind_; }

    /** Ordered (key, rendered JSON value) pairs. */
    const std::vector<std::pair<std::string, std::string>>& fields() const
    {
        return fields_;
    }

    /** @return this event as one JSON object (no trailing newline). */
    std::string toJsonLine() const;

    /**
     * Parses a line produced by toJsonLine. @return std::nullopt on
     * malformed input (field values are kept as raw JSON text, so a
     * parse → serialize round trip is byte-identical).
     */
    static std::optional<TraceEvent> fromJsonLine(const std::string& line);

  private:
    int tick_ = 0;
    double time_ = 0.0;
    std::string layer_;
    std::string kind_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

/**
 * Collects the events of one run. Thread-safe (a mutex guards the
 * event list), though a run's control loop is single-threaded; the
 * lock exists so sweep-level consumers may snapshot a live sink.
 */
class TraceSink
{
  public:
    /** @param run_id stable identity stamped into the trace header. */
    explicit TraceSink(std::string run_id);

    /** Sets the (tick, simulated time) context for following events. */
    void beginTick(int tick, double sim_time);

    /** @return an event at the current tick for @p layer / @p kind. */
    TraceEvent makeEvent(const std::string& layer,
                         const std::string& kind) const;

    /** Appends @p event to the trace. */
    void record(TraceEvent event);

    /** @return the run identity given at construction. */
    const std::string& runId() const { return run_id_; }

    /** @return the number of recorded events. */
    std::size_t eventCount() const;

    /** @return a snapshot copy of all recorded events. */
    std::vector<TraceEvent> events() const;

    /** Discards all recorded events and resets the tick context. */
    void clear();

    /** Writes the trace as JSONL (header line, then one event/line). */
    void writeJsonl(std::ostream& os) const;

    /** Writes the trace in Chrome trace_event JSON format. */
    void writeChrome(std::ostream& os) const;

  private:
    std::string run_id_;
    int tick_ = 0;
    double time_ = 0.0;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

/**
 * Reads a JSONL trace written by TraceSink::writeJsonl from @p is.
 * @param run_id receives the header identity when non-null.
 * @return the events, or std::nullopt when a line fails to parse.
 */
std::optional<std::vector<TraceEvent>>
readJsonlTrace(std::istream& is, std::string* run_id = nullptr);

}  // namespace yukta::obs

#endif  // YUKTA_OBS_TRACE_H_
