#include "obs/stateio.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace yukta::obs {

namespace {

/** @return the 16-hex-digit bit pattern of @p v. */
std::string hexBits(double v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return std::string(buf);
}

int hexNibble(char c)
{
    if (c >= '0' && c <= '9') {
        return c - '0';
    }
    if (c >= 'a' && c <= 'f') {
        return c - 'a' + 10;
    }
    if (c >= 'A' && c <= 'F') {
        return c - 'A' + 10;
    }
    return -1;
}

/** @return true when all of @p v is one base-10 integer that fits. */
template <typename Int>
bool parseWhole(const std::string& v, Int& out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    return ec == std::errc() && ptr == end;
}

}  // namespace

std::string percentEncode(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        if (c == '%' || c == '=' || c == '\n' || c == '\r') {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02x",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string percentDecode(const std::string& enc)
{
    std::string out;
    out.reserve(enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
        if (enc[i] != '%') {
            out += enc[i];
            continue;
        }
        if (i + 2 >= enc.size()) {
            throw std::runtime_error(
                "StateReader: truncated percent escape");
        }
        const int hi = hexNibble(enc[i + 1]);
        const int lo = hexNibble(enc[i + 2]);
        if (hi < 0 || lo < 0) {
            throw std::runtime_error(
                "StateReader: malformed percent escape");
        }
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
    }
    return out;
}

void StateWriter::u64(const std::string& key, std::uint64_t v)
{
    os_ << key << '=' << v << '\n';
}

void StateWriter::i64(const std::string& key, long long v)
{
    os_ << key << '=' << v << '\n';
}

void StateWriter::boolean(const std::string& key, bool v)
{
    os_ << key << '=' << (v ? 1 : 0) << '\n';
}

void StateWriter::f64(const std::string& key, double v)
{
    os_ << key << '=' << hexBits(v) << '\n';
}

void StateWriter::str(const std::string& key, const std::string& v)
{
    os_ << key << '=' << percentEncode(v) << '\n';
}

void StateWriter::f64vec(const std::string& key,
                         const std::vector<double>& v)
{
    u64(key + ".n", v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        f64(key + "." + std::to_string(i), v[i]);
    }
}

void StateWriter::i64vec(const std::string& key,
                         const std::vector<long long>& v)
{
    u64(key + ".n", v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        i64(key + "." + std::to_string(i), v[i]);
    }
}

void StateWriter::u64vec(const std::string& key,
                         const std::vector<std::uint64_t>& v)
{
    u64(key + ".n", v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        u64(key + "." + std::to_string(i), v[i]);
    }
}

StateReader::StateReader(const std::string& body)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        std::size_t eol = body.find('\n', pos);
        if (eol == std::string::npos) {
            eol = body.size();
        }
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            throw std::runtime_error(
                "StateReader: line without '=': '" + line + "'");
        }
        fields_.emplace_back(line.substr(0, eq), line.substr(eq + 1));
    }
}

const std::string& StateReader::take(const std::string& key)
{
    if (next_ >= fields_.size()) {
        failKey(key, "past end of snapshot");
    }
    const auto& field = fields_[next_];
    if (field.first != key) {
        failKey(key, "found '" + field.first + "' instead");
    }
    ++next_;
    return fields_[next_ - 1].second;
}

void StateReader::failKey(const std::string& key,
                          const std::string& why) const
{
    throw std::runtime_error("StateReader: reading '" + key + "': " +
                            why);
}

std::uint64_t StateReader::u64(const std::string& key)
{
    const std::string& v = take(key);
    std::uint64_t out = 0;
    if (!parseWhole(v, out)) {
        failKey(key, "not an unsigned 64-bit integer: '" + v + "'");
    }
    return out;
}

long long StateReader::i64(const std::string& key)
{
    const std::string& v = take(key);
    long long out = 0;
    if (!parseWhole(v, out)) {
        failKey(key, "not a signed 64-bit integer: '" + v + "'");
    }
    return out;
}

bool StateReader::boolean(const std::string& key)
{
    const std::string& v = take(key);
    if (v == "1") {
        return true;
    }
    if (v == "0") {
        return false;
    }
    failKey(key, "expected 0 or 1, got '" + v + "'");
}

double StateReader::f64(const std::string& key)
{
    const std::string& v = take(key);
    if (v.size() != 16) {
        failKey(key, "expected 16 hex digits, got '" + v + "'");
    }
    std::uint64_t bits = 0;
    for (char c : v) {
        const int nib = hexNibble(c);
        if (nib < 0) {
            failKey(key, "non-hex digit in '" + v + "'");
        }
        bits = (bits << 4) | static_cast<std::uint64_t>(nib);
    }
    return std::bit_cast<double>(bits);
}

std::string StateReader::str(const std::string& key)
{
    return percentDecode(take(key));
}

std::vector<double> StateReader::f64vec(const std::string& key)
{
    const std::uint64_t n = u64(key + ".n");
    std::vector<double> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back(f64(key + "." + std::to_string(i)));
    }
    return out;
}

std::vector<long long> StateReader::i64vec(const std::string& key)
{
    const std::uint64_t n = u64(key + ".n");
    std::vector<long long> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back(i64(key + "." + std::to_string(i)));
    }
    return out;
}

std::vector<std::uint64_t> StateReader::u64vec(const std::string& key)
{
    const std::uint64_t n = u64(key + ".n");
    std::vector<std::uint64_t> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        out.push_back(u64(key + "." + std::to_string(i)));
    }
    return out;
}

}  // namespace yukta::obs
