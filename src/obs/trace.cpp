#include "obs/trace.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

namespace yukta::obs {

std::string
canonicalNumber(double v)
{
    if (std::isnan(v)) {
        return "\"nan\"";
    }
    if (std::isinf(v)) {
        return v > 0.0 ? "\"inf\"" : "\"-inf\"";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TraceEvent::TraceEvent(int tick, double time, std::string layer,
                       std::string kind)
    : tick_(tick), time_(time), layer_(std::move(layer)),
      kind_(std::move(kind))
{
}

TraceEvent&
TraceEvent::num(const std::string& key, double v)
{
    fields_.emplace_back(key, canonicalNumber(v));
    return *this;
}

TraceEvent&
TraceEvent::integer(const std::string& key, long long v)
{
    fields_.emplace_back(key, std::to_string(v));
    return *this;
}

TraceEvent&
TraceEvent::str(const std::string& key, const std::string& v)
{
    std::string quoted;
    quoted.reserve(v.size() + 2);
    quoted.push_back('"');
    quoted.append(jsonEscape(v));
    quoted.push_back('"');
    fields_.emplace_back(key, std::move(quoted));
    return *this;
}

TraceEvent&
TraceEvent::vec(const std::string& key, const std::vector<double>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += canonicalNumber(v[i]);
    }
    out += "]";
    fields_.emplace_back(key, std::move(out));
    return *this;
}

TraceEvent&
TraceEvent::flags(const std::string& key, const std::vector<int>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) {
            out += ",";
        }
        out += std::to_string(v[i]);
    }
    out += "]";
    fields_.emplace_back(key, std::move(out));
    return *this;
}

std::string
TraceEvent::toJsonLine() const
{
    std::string out;
    out.append("{\"tick\":");
    out.append(std::to_string(tick_));
    out.append(",\"time\":");
    out.append(canonicalNumber(time_));
    out.append(",\"layer\":\"");
    out.append(jsonEscape(layer_));
    out.append("\",\"kind\":\"");
    out.append(jsonEscape(kind_));
    out.append("\",\"f\":{");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) {
            out.push_back(',');
        }
        out.push_back('"');
        out.append(jsonEscape(fields_[i].first));
        out.append("\":");
        out.append(fields_[i].second);
    }
    out.append("}}");
    return out;
}

namespace {

/**
 * Minimal scanner for the JSON subset toJsonLine emits. Values are
 * returned as raw text (numbers/arrays verbatim, strings unescaped
 * separately), which keeps diffing byte-exact.
 */
class JsonScanner
{
  public:
    explicit JsonScanner(const std::string& s) : s_(s) {}

    /** Consumes @p c (after whitespace); @return false on mismatch. */
    bool expect(char c)
    {
        skipWs();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    /** @return the next character without consuming it ('\0' at end). */
    char peek()
    {
        skipWs();
        return i_ < s_.size() ? s_[i_] : '\0';
    }

    /** Parses a quoted string into @p out (unescaping). */
    bool parseString(std::string* out)
    {
        if (!expect('"')) {
            return false;
        }
        out->clear();
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\' && i_ < s_.size()) {
                char e = s_[i_++];
                switch (e) {
                  case 'n':
                    out->push_back('\n');
                    break;
                  case 't':
                    out->push_back('\t');
                    break;
                  case 'r':
                    out->push_back('\r');
                    break;
                  case 'u': {
                    if (i_ + 4 > s_.size()) {
                        return false;
                    }
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        char h = s_[i_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else {
                            return false;
                        }
                    }
                    out->push_back(static_cast<char>(code));
                    break;
                  }
                  default:
                    out->push_back(e);
                }
            } else {
                out->push_back(c);
            }
        }
        return expect('"');
    }

    /**
     * Captures one JSON value (number, string, or flat array) as raw
     * text, exactly as it appears in the input.
     */
    bool parseRawValue(std::string* out)
    {
        skipWs();
        std::size_t start = i_;
        if (i_ >= s_.size()) {
            return false;
        }
        if (s_[i_] == '"') {
            std::string ignored;
            if (!parseString(&ignored)) {
                return false;
            }
        } else if (s_[i_] == '[') {
            int depth = 0;
            bool in_string = false;
            while (i_ < s_.size()) {
                char c = s_[i_++];
                if (in_string) {
                    if (c == '\\') {
                        ++i_;
                    } else if (c == '"') {
                        in_string = false;
                    }
                } else if (c == '"') {
                    in_string = true;
                } else if (c == '[') {
                    ++depth;
                } else if (c == ']') {
                    if (--depth == 0) {
                        break;
                    }
                }
            }
            if (depth != 0) {
                return false;
            }
        } else {
            while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
                   s_[i_] != ']') {
                ++i_;
            }
        }
        *out = s_.substr(start, i_ - start);
        return !out->empty();
    }

  private:
    void skipWs()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])) != 0) {
            ++i_;
        }
    }

    const std::string& s_;
    std::size_t i_ = 0;
};

}  // namespace

std::optional<TraceEvent>
TraceEvent::fromJsonLine(const std::string& line)
{
    JsonScanner sc(line);
    if (!sc.expect('{')) {
        return std::nullopt;
    }
    TraceEvent ev;
    bool first = true;
    bool saw_tick = false;
    bool saw_time = false;
    bool saw_layer = false;
    bool saw_kind = false;
    while (true) {
        if (sc.peek() == '}') {
            sc.expect('}');
            break;
        }
        if (!first && !sc.expect(',')) {
            return std::nullopt;
        }
        first = false;
        std::string key;
        if (!sc.parseString(&key) || !sc.expect(':')) {
            return std::nullopt;
        }
        if (key == "tick") {
            std::string raw;
            if (!sc.parseRawValue(&raw)) {
                return std::nullopt;
            }
            ev.tick_ = std::atoi(raw.c_str());
            saw_tick = true;
        } else if (key == "time") {
            std::string raw;
            if (!sc.parseRawValue(&raw)) {
                return std::nullopt;
            }
            ev.time_ = std::atof(raw.c_str());
            saw_time = true;
        } else if (key == "layer") {
            if (!sc.parseString(&ev.layer_)) {
                return std::nullopt;
            }
            saw_layer = true;
        } else if (key == "kind") {
            if (!sc.parseString(&ev.kind_)) {
                return std::nullopt;
            }
            saw_kind = true;
        } else if (key == "f") {
            if (!sc.expect('{')) {
                return std::nullopt;
            }
            bool ffirst = true;
            while (true) {
                if (sc.peek() == '}') {
                    sc.expect('}');
                    break;
                }
                if (!ffirst && !sc.expect(',')) {
                    return std::nullopt;
                }
                ffirst = false;
                std::string fkey;
                std::string fval;
                if (!sc.parseString(&fkey) || !sc.expect(':') ||
                    !sc.parseRawValue(&fval)) {
                    return std::nullopt;
                }
                ev.fields_.emplace_back(std::move(fkey), std::move(fval));
            }
        } else {
            std::string ignored;
            if (!sc.parseRawValue(&ignored)) {
                return std::nullopt;
            }
        }
    }
    if (!saw_tick || !saw_time || !saw_layer || !saw_kind) {
        return std::nullopt;
    }
    return ev;
}

TraceSink::TraceSink(std::string run_id) : run_id_(std::move(run_id)) {}

void
TraceSink::beginTick(int tick, double sim_time)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tick_ = tick;
    time_ = sim_time;
}

TraceEvent
TraceSink::makeEvent(const std::string& layer, const std::string& kind) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return TraceEvent(tick_, time_, layer, kind);
}

void
TraceSink::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::size_t
TraceSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
TraceSink::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
TraceSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    tick_ = 0;
    time_ = 0.0;
}

void
TraceSink::writeJsonl(std::ostream& os) const
{
    std::vector<TraceEvent> snapshot = events();
    os << "{\"yukta_trace\":1,\"run\":\"" << jsonEscape(run_id_) << "\"}\n";
    for (const TraceEvent& ev : snapshot) {
        os << ev.toJsonLine() << "\n";
    }
}

void
TraceSink::writeChrome(std::ostream& os) const
{
    std::vector<TraceEvent> snapshot = events();
    // Stable per-layer thread ids, named via metadata events, so every
    // layer gets its own timeline row in the viewer.
    std::map<std::string, int> tids;
    for (const TraceEvent& ev : snapshot) {
        tids.emplace(ev.layer(), 0);
    }
    int next = 1;
    for (auto& [layer, tid] : tids) {
        tid = next++;
    }
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& [layer, tid] : tids) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << jsonEscape(layer) << "\"}}";
    }
    for (const TraceEvent& ev : snapshot) {
        os << ",{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
           << tids[ev.layer()] << ",\"ts\":"
           << canonicalNumber(ev.time() * 1e6) << ",\"name\":\""
           << jsonEscape(ev.layer()) << "/" << jsonEscape(ev.kind())
           << "\",\"args\":{\"tick\":" << ev.tick();
        for (const auto& [key, value] : ev.fields()) {
            os << ",\"" << jsonEscape(key) << "\":" << value;
        }
        os << "}}";
    }
    os << "]}\n";
}

std::optional<std::vector<TraceEvent>>
readJsonlTrace(std::istream& is, std::string* run_id)
{
    std::vector<TraceEvent> events;
    std::string line;
    bool first = true;
    while (std::getline(is, line)) {
        if (line.empty()) {
            continue;
        }
        if (first && line.find("\"yukta_trace\"") != std::string::npos) {
            first = false;
            if (run_id != nullptr) {
                std::size_t pos = line.find("\"run\":\"");
                if (pos != std::string::npos) {
                    std::size_t begin = pos + 7;
                    std::size_t end = line.find('"', begin);
                    if (end != std::string::npos) {
                        *run_id = line.substr(begin, end - begin);
                    }
                }
            }
            continue;
        }
        first = false;
        std::optional<TraceEvent> ev = TraceEvent::fromJsonLine(line);
        if (!ev) {
            return std::nullopt;
        }
        events.push_back(std::move(*ev));
    }
    return events;
}

}  // namespace yukta::obs
