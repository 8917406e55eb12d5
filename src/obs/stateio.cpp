#include "obs/stateio.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <stdexcept>
#include <system_error>

namespace yukta::obs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/** Hex digit value per byte, -1 for a non-hex byte. */
constexpr std::array<signed char, 256> kNibble = [] {
    std::array<signed char, 256> t{};
    t.fill(-1);
    for (int i = 0; i < 10; ++i) {
        t[static_cast<std::size_t>('0' + i)] = static_cast<signed char>(i);
    }
    for (int i = 0; i < 6; ++i) {
        t[static_cast<std::size_t>('a' + i)] =
            static_cast<signed char>(10 + i);
        t[static_cast<std::size_t>('A' + i)] =
            static_cast<signed char>(10 + i);
    }
    return t;
}();

/** Writes the low 4 * @p digits bits of @p v as hex into @p out. */
void
putHex(char* out, std::uint64_t v, int digits)
{
    for (int i = digits - 1; i >= 0; --i) {
        out[i] = kHexDigits[v & 0xf];
        v >>= 4;
    }
}

/** @return true when all of @p s is hex digits; their value in @p out. */
bool
parseHex(std::string_view s, std::uint64_t& out)
{
    std::uint64_t v = 0;
    for (const char c : s) {
        const int nib = kNibble[static_cast<unsigned char>(c)];
        if (nib < 0) {
            return false;
        }
        v = (v << 4) | static_cast<std::uint64_t>(nib);
    }
    out = v;
    return true;
}

/** @return true when all of @p v is one base-10 integer that fits. */
template <typename Int>
bool
parseWhole(std::string_view v, Int& out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    return ec == std::errc() && ptr == end;
}

}  // namespace

StateWriter::StateWriter(std::size_t capacity)
{
    buf_.reserve(capacity);
}

void
StateWriter::begin(std::string_view key)
{
    buf_.append(key);
    buf_ += '=';
}

void
StateWriter::u64(std::string_view key, std::uint64_t v)
{
    begin(key);
    appendInt(v);
    buf_ += '\n';
}

void
StateWriter::i64(std::string_view key, long long v)
{
    begin(key);
    appendInt(v);
    buf_ += '\n';
}

void
StateWriter::boolean(std::string_view key, bool v)
{
    begin(key);
    buf_ += v ? '1' : '0';
    buf_ += '\n';
}

void
StateWriter::f64(std::string_view key, double v)
{
    begin(key);
    char hex[16];
    putHex(hex, std::bit_cast<std::uint64_t>(v), 16);
    buf_.append(hex, sizeof hex);
    buf_ += '\n';
}

void
StateWriter::str(std::string_view key, std::string_view v)
{
    begin(key);
    for (const char c : v) {
        if (c == '%' || c == '=' || c == '\n' || c == '\r') {
            char esc[3] = {'%', 0, 0};
            putHex(esc + 1, static_cast<unsigned char>(c), 2);
            buf_.append(esc, sizeof esc);
        } else {
            buf_ += c;
        }
    }
    buf_ += '\n';
}

void
StateWriter::f64vec(std::string_view key, const std::vector<double>& v)
{
    begin(key);
    appendInt(v.size());
    buf_ += ':';
    const std::size_t at = buf_.size();
    buf_.resize(at + 16 * v.size());
    char* out = buf_.data() + at;
    for (const double x : v) {
        putHex(out, std::bit_cast<std::uint64_t>(x), 16);
        out += 16;
    }
    buf_ += '\n';
}

void
StateWriter::engine(std::string_view key, const Mt19937& e)
{
    begin(key);
    appendInt(e.position());
    buf_ += ':';
    const std::size_t at = buf_.size();
    buf_.resize(at + 8 * Mt19937::kWords);
    char* out = buf_.data() + at;
    for (const std::uint32_t word : e.words()) {
        putHex(out, word, 8);
        out += 8;
    }
    buf_ += '\n';
}

StateReader::StateReader(std::string body) : body_(std::move(body)) {}

std::string_view
StateReader::next(std::string_view key)
{
    if (pos_ >= body_.size()) {
        failKey(key, "past end of snapshot");
    }
    const std::string_view rest = std::string_view(body_).substr(pos_);
    const std::size_t eol = std::min(rest.find('\n'), rest.size());
    const std::string_view line = rest.substr(0, eol);
    if (line.size() <= key.size() || line[key.size()] != '=' ||
        line.substr(0, key.size()) != key) {
        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            failKey(key, "line without '=' at byte " +
                             std::to_string(pos_));
        }
        failKey(key,
                "found '" + std::string(line.substr(0, eq)) + "' instead");
    }
    pos_ += std::min(eol + 1, rest.size());
    return line.substr(key.size() + 1);
}

void
StateReader::failKey(std::string_view key, const std::string& why) const
{
    throw std::runtime_error("StateReader: reading '" + std::string(key) +
                             "': " + why);
}

std::uint64_t
StateReader::u64(std::string_view key)
{
    const std::string_view v = next(key);
    std::uint64_t out = 0;
    if (!parseWhole(v, out)) {
        failKey(key, "not an unsigned 64-bit integer: '" +
                         std::string(v) + "'");
    }
    return out;
}

long long
StateReader::i64(std::string_view key)
{
    const std::string_view v = next(key);
    long long out = 0;
    if (!parseWhole(v, out)) {
        failKey(key,
                "not a signed 64-bit integer: '" + std::string(v) + "'");
    }
    return out;
}

bool
StateReader::boolean(std::string_view key)
{
    const std::string_view v = next(key);
    if (v == "1") {
        return true;
    }
    if (v == "0") {
        return false;
    }
    failKey(key, "expected 0 or 1, got '" + std::string(v) + "'");
}

double
StateReader::f64(std::string_view key)
{
    const std::string_view v = next(key);
    std::uint64_t bits = 0;
    if (v.size() != 16 || !parseHex(v, bits)) {
        failKey(key, "expected 16 hex digits, got '" + std::string(v) + "'");
    }
    return std::bit_cast<double>(bits);
}

std::string
StateReader::str(std::string_view key)
{
    const std::string_view enc = next(key);
    std::string out;
    out.reserve(enc.size());
    for (std::size_t i = 0; i < enc.size(); ++i) {
        if (enc[i] != '%') {
            out += enc[i];
            continue;
        }
        std::uint64_t c = 0;
        if (i + 2 >= enc.size() || !parseHex(enc.substr(i + 1, 2), c)) {
            failKey(key, "malformed percent escape at offset " +
                             std::to_string(i));
        }
        out += static_cast<char>(c);
        i += 2;
    }
    return out;
}

std::uint64_t
StateReader::counted(std::string_view key, std::string_view v,
                     std::string_view& elems) const
{
    const std::size_t colon = v.find(':');
    std::uint64_t n = 0;
    if (colon == std::string_view::npos ||
        !parseWhole(v.substr(0, colon), n)) {
        failKey(key, "expected '<count>:' before the elements");
    }
    elems = v.substr(colon + 1);
    return n;
}

std::vector<double>
StateReader::f64vec(std::string_view key)
{
    std::string_view elems;
    const std::uint64_t n = counted(key, next(key), elems);
    if (elems.size() % 16 != 0 || elems.size() / 16 != n) {
        failKey(key, "expected " + std::to_string(n) +
                         " elements of 16 hex digits, got " +
                         std::to_string(elems.size()) + " characters");
    }
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t bits = 0;
        if (!parseHex(elems.substr(16 * i, 16), bits)) {
            failKey(key, "non-hex digit in element " + std::to_string(i));
        }
        out[i] = std::bit_cast<double>(bits);
    }
    return out;
}

template <typename Int>
std::vector<Int>
StateReader::intVec(std::string_view key)
{
    std::string_view elems;
    const std::uint64_t n = counted(key, next(key), elems);
    // n elements need at least n digits and n - 1 commas.
    if (n == 0 ? !elems.empty() : n > (elems.size() + 1) / 2) {
        failKey(key, "count " + std::to_string(n) +
                         " does not fit the field's " +
                         std::to_string(elems.size()) + " characters");
    }
    std::vector<Int> out;
    out.reserve(n);
    std::size_t at = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::size_t end = elems.find(',', at);
        if (i + 1 == n) {
            if (end != std::string_view::npos) {
                failKey(key, "more than " + std::to_string(n) +
                                 " elements");
            }
            end = elems.size();
        } else if (end == std::string_view::npos) {
            failKey(key, "fewer than " + std::to_string(n) + " elements");
        }
        Int x = 0;
        if (!parseWhole(elems.substr(at, end - at), x)) {
            failKey(key, "element " + std::to_string(i) +
                             " is not an integer of the field's type: '" +
                             std::string(elems.substr(at, end - at)) +
                             "'");
        }
        out.push_back(x);
        at = end + 1;
    }
    return out;
}

std::vector<long long>
StateReader::i64vec(std::string_view key)
{
    return intVec<long long>(key);
}

std::vector<std::uint64_t>
StateReader::u64vec(std::string_view key)
{
    return intVec<std::uint64_t>(key);
}

void
StateReader::engine(std::string_view key, Mt19937& e)
{
    std::string_view elems;
    const std::uint64_t position = counted(key, next(key), elems);
    if (position > Mt19937::kWords) {
        failKey(key, "position " + std::to_string(position) +
                         " past the engine's " +
                         std::to_string(Mt19937::kWords) + " words");
    }
    if (elems.size() != 8 * Mt19937::kWords) {
        failKey(key, "expected " + std::to_string(Mt19937::kWords) +
                         " words of 8 hex digits, got " +
                         std::to_string(elems.size()) + " characters");
    }
    std::array<std::uint32_t, Mt19937::kWords> words{};
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint64_t w = 0;
        if (!parseHex(elems.substr(8 * i, 8), w)) {
            failKey(key, "non-hex digit in word " + std::to_string(i));
        }
        words[i] = static_cast<std::uint32_t>(w);
    }
    e.restore(words, position);
}

}  // namespace yukta::obs
