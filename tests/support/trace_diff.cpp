#include "support/trace_diff.h"

#include <sstream>

namespace yukta::obs {

namespace {

/** @return a divergence at @p index for identity-level mismatches. */
TraceDivergence
identityDivergence(std::size_t index, const TraceEvent& ev,
                   const std::string& field, std::string expected,
                   std::string actual)
{
    TraceDivergence d;
    d.event_index = index;
    d.tick = ev.tick();
    d.layer = ev.layer();
    d.kind = ev.kind();
    d.field = field;
    d.expected = std::move(expected);
    d.actual = std::move(actual);
    return d;
}

}  // namespace

std::optional<TraceDivergence>
diffTraces(const std::vector<TraceEvent>& expected,
           const std::vector<TraceEvent>& actual)
{
    std::size_t n = std::min(expected.size(), actual.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent& a = expected[i];
        const TraceEvent& b = actual[i];
        if (a.tick() != b.tick()) {
            return identityDivergence(i, a, "(tick)",
                                      std::to_string(a.tick()),
                                      std::to_string(b.tick()));
        }
        if (a.layer() != b.layer() || a.kind() != b.kind()) {
            return identityDivergence(i, a, "(event)",
                                      a.layer() + "/" + a.kind(),
                                      b.layer() + "/" + b.kind());
        }
        if (canonicalNumber(a.time()) != canonicalNumber(b.time())) {
            return identityDivergence(i, a, "(time)",
                                      canonicalNumber(a.time()),
                                      canonicalNumber(b.time()));
        }
        const auto& fa = a.fields();
        const auto& fb = b.fields();
        std::size_t nf = std::min(fa.size(), fb.size());
        for (std::size_t j = 0; j < nf; ++j) {
            if (fa[j].first != fb[j].first) {
                return identityDivergence(i, a, "(field-name)",
                                          fa[j].first, fb[j].first);
            }
            if (fa[j].second != fb[j].second) {
                return identityDivergence(i, a, fa[j].first, fa[j].second,
                                          fb[j].second);
            }
        }
        if (fa.size() != fb.size()) {
            return identityDivergence(
                i, a, "(field-count)", std::to_string(fa.size()) + " fields",
                std::to_string(fb.size()) + " fields");
        }
    }
    if (expected.size() != actual.size()) {
        TraceDivergence d;
        d.event_index = n;
        const TraceEvent& ref =
            expected.size() > n ? expected[n] : actual[n];
        d.tick = ref.tick();
        d.layer = ref.layer();
        d.kind = ref.kind();
        d.field = "(event-count)";
        d.expected = std::to_string(expected.size()) + " events";
        d.actual = std::to_string(actual.size()) + " events";
        return d;
    }
    return std::nullopt;
}

std::optional<TraceDivergence>
diffJsonlStreams(std::istream& expected, std::istream& actual)
{
    std::optional<std::vector<TraceEvent>> a = readJsonlTrace(expected);
    std::optional<std::vector<TraceEvent>> b = readJsonlTrace(actual);
    if (!a || !b) {
        TraceDivergence d;
        d.field = "(parse)";
        d.expected = a ? "parsed" : "unparseable expected trace";
        d.actual = b ? "parsed" : "unparseable actual trace";
        return d;
    }
    return diffTraces(*a, *b);
}

std::string
describeDivergence(const TraceDivergence& d)
{
    std::ostringstream os;
    os << "traces diverge first at tick " << d.tick << " (event #"
       << d.event_index << ", " << d.layer << "/" << d.kind << ")";
    if (!d.field.empty()) {
        os << ", field '" << d.field << "'";
    }
    os << ": expected " << d.expected << ", got " << d.actual;
    return os.str();
}

}  // namespace yukta::obs
