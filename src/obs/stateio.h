#ifndef YUKTA_OBS_STATEIO_H_
#define YUKTA_OBS_STATEIO_H_

/**
 * @file
 * Bit-exact state snapshot encoding for checkpoint/resume.
 *
 * A checkpoint is a flat, strictly ordered `key=value` text stream.
 * Every stateful component lists its fields once, in a member
 * `template <class Io> void state(Io& io)` instantiated for both
 * classes here, which share their field names: each field is one
 * direct call that writes it or reads it back into the same member.
 * A mismatch (missing field, renamed key, version skew, a value that
 * does not fit its member) fails loudly with the offending key.
 *
 * StateWriter appends every field straight into one std::string, and
 * StateReader walks that string with one cursor, so neither side
 * allocates per field. Doubles are encoded as their 16-hex-digit
 * IEEE-754 bit pattern, so a round trip is exact to the bit -- the
 * property the fleet's "run-to-T equals run-to-T/2 + restore" digest
 * gate rests on. A vector is one field, `key=<n>:` followed by its
 * elements: n fixed-width 16-hex-digit doubles, or n comma-separated
 * integers. An Mt19937 is one field, `key=<position>:` followed by its
 * 624 state words as 8 hex digits each. Strings are percent-encoded
 * (%, =, CR, LF).
 *
 * This lives in obs (the dependency-free base layer) so every layer
 * from platform to fleet can serialize itself without new layer
 * edges.
 */

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/mt19937.h"

namespace yukta::obs {

/** Appends typed key=value fields to one snapshot body. */
class StateWriter
{
  public:
    /** Starts an empty body with @p capacity bytes reserved. */
    explicit StateWriter(std::size_t capacity = 0);

    /** Writes an unsigned integer field. */
    void u64(std::string_view key, std::uint64_t v);

    /** Writes a signed integer field. */
    void i64(std::string_view key, long long v);

    /** Writes a boolean field (encoded 0/1). */
    void boolean(std::string_view key, bool v);

    /** Writes a double as its exact IEEE-754 bit pattern. */
    void f64(std::string_view key, double v);

    /** Writes a percent-encoded string field. */
    void str(std::string_view key, std::string_view v);

    /** Writes `key=<n>:` then n 16-hex-digit bit patterns. */
    void f64vec(std::string_view key, const std::vector<double>& v);

    /** Writes `key=<n>:` then @p v's n integers, comma-separated. */
    template <std::integral Int>
    void intvec(std::string_view key, const std::vector<Int>& v)
    {
        begin(key);
        appendInt(v.size());
        buf_ += ':';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i > 0) {
                buf_ += ',';
            }
            appendInt(v[i]);
        }
        buf_ += '\n';
    }

    /** Writes an enumerator as its underlying value. */
    template <typename E>
        requires std::is_enum_v<E>
    void u64(std::string_view key, E v)
    {
        u64(key, static_cast<std::uint64_t>(v));
    }

    /** Writes `key=<position>:` then the 624 state words in hex. */
    void engine(std::string_view key, const Mt19937& e);

    /**
     * Serializes a <random> distribution through its stream operator
     * (libstdc++ round-trips it exactly, including a normal
     * distribution's cached second variate). Engines go through
     * engine(), never through text.
     */
    template <typename D>
    void distribution(std::string_view key, const D& d)
    {
        static_assert(requires { typename D::param_type; },
                      "distribution() takes a <random> distribution; "
                      "save an engine with engine()");
        std::ostringstream os;
        os << d;
        str(key, os.str());
    }

    /** Writes @p c's element count; the caller then writes each. */
    template <typename C>
    void count(std::string_view key, const C& c)
    {
        u64(key, c.size());
    }

    /**
     * Writes @p v, a bool or a count that StateReader::expect requires
     * the restoring instance's own value to equal.
     */
    template <typename T>
    void expect(std::string_view key, T v, std::string_view /*hint*/ = {})
    {
        if constexpr (std::is_same_v<T, bool>) {
            boolean(key, v);
        } else {
            u64(key, v);
        }
    }

    /** state(Io&) guards restore-only work with this. */
    static constexpr bool kLoading = false;

    /** @return the accumulated body, moved out; the writer is empty. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;

    /** Appends `key=`. */
    void begin(std::string_view key);

    /** Appends @p v in base 10. */
    template <typename Int>
    void appendInt(Int v)
    {
        char digits[24];
        buf_.append(digits,
                    std::to_chars(digits, digits + sizeof digits, v).ptr);
    }
};

/**
 * Strictly sequential reader over a StateWriter body. Each accessor
 * consumes the next line and requires its key to match; the reference
 * forms store the field into a member, range-checked.
 * @throws std::runtime_error naming the key on key mismatch,
 * malformed or out-of-range values, or reading past the end.
 */
class StateReader
{
  public:
    /** Takes ownership of @p body (a StateWriter body). */
    explicit StateReader(std::string body);

    /** Reads the next field as an unsigned integer. */
    std::uint64_t u64(std::string_view key);

    /** Reads the next field as a signed integer. */
    long long i64(std::string_view key);

    /** Reads the next field as a boolean. */
    bool boolean(std::string_view key);

    /** Reads the next field as an exact double bit pattern. */
    double f64(std::string_view key);

    /** Reads the next field as a percent-decoded string. */
    std::string str(std::string_view key);

    /** Reads a f64vec written by StateWriter::f64vec. */
    std::vector<double> f64vec(std::string_view key);

    /** Reads a StateWriter::intvec field of signed integers. */
    std::vector<long long> i64vec(std::string_view key);

    /** Reads a StateWriter::intvec field of unsigned integers. */
    std::vector<std::uint64_t> u64vec(std::string_view key);

    /**
     * Reads an unsigned field into @p out: an integer it must fit, or
     * an enum E it must not take past lastEnumerator(E), which
     * argument-dependent lookup finds next to the enum.
     */
    template <typename T>
    void u64(std::string_view key, T& out)
    {
        out = fit<T>(key, u64(key));
    }

    /** Reads a signed field into @p out, range-checked like u64. */
    template <typename T>
    void i64(std::string_view key, T& out)
    {
        out = fit<T>(key, i64(key));
    }

    /** Reference forms of the readers above: field @p k into @p v. */
    void boolean(std::string_view k, bool& v) { v = boolean(k); }
    void f64(std::string_view k, double& v) { v = f64(k); }
    void str(std::string_view k, std::string& v) { v = str(k); }
    void f64vec(std::string_view k, std::vector<double>& v) { v = f64vec(k); }

    /**
     * Reads a StateWriter::intvec field into @p v, refusing an element
     * that does not fit Int as the scalar reference forms do.
     */
    template <std::integral Int>
    void intvec(std::string_view key, std::vector<Int>& v)
    {
        std::vector<std::conditional_t<std::is_signed_v<Int>, long long,
                                       std::uint64_t>>
            wide;
        if constexpr (std::is_signed_v<Int>) {
            wide = i64vec(key);
        } else {
            wide = u64vec(key);
        }
        v.resize(wide.size());
        for (std::size_t i = 0; i < wide.size(); ++i) {
            v[i] = fit<Int>(key, wide[i]);
        }
    }

    /** Restores @p e from a field written by StateWriter::engine. */
    void engine(std::string_view key, Mt19937& e);

    /** Restores a <random> distribution from its field. */
    template <typename D>
    void distribution(std::string_view key, D& d)
    {
        static_assert(requires { typename D::param_type; },
                      "distribution() takes a <random> distribution; "
                      "load an engine with engine()");
        std::istringstream is(str(key));
        is >> d;
        if (is.fail()) {
            failKey(key, "unparsable distribution state");
        }
    }

    /**
     * Reads a StateWriter::count and resizes @p c to it, refusing a
     * count larger than the bytes left in the body (each element takes
     * at least one) before anything allocates.
     */
    template <typename C>
    void count(std::string_view key, C& c)
    {
        const std::uint64_t n = u64(key);
        if (n > body_.size() - pos_) {
            failKey(key, "count " + std::to_string(n) +
                             " exceeds the bytes left");
        }
        c.resize(n);
    }

    /**
     * Reads a StateWriter::expect field, which must equal @p want.
     * @throws std::runtime_error naming the key, both values and
     * @p hint (what to change to restore) when they differ.
     */
    template <typename T>
    void expect(std::string_view key, T want, std::string_view hint = {})
    {
        const std::uint64_t got =
            std::is_same_v<T, bool> ? boolean(key) : u64(key);
        if (got != static_cast<std::uint64_t>(want)) {
            failKey(key, "saved " + std::to_string(got) +
                             " where this instance has " +
                             std::to_string(want) +
                             (hint.empty() ? "" : "; " + std::string(hint)));
        }
    }

    /** state(Io&) guards restore-only work with this. */
    static constexpr bool kLoading = true;

    /** @return true when every field has been consumed. */
    bool atEnd() const { return pos_ == body_.size(); }

  private:
    std::string body_;
    std::size_t pos_ = 0;

    /** @return @p v as a T; throws naming @p key when it does not fit. */
    template <typename T, typename V>
    T fit(std::string_view key, V v) const
    {
        if constexpr (std::is_enum_v<T>) {
            if (std::cmp_less(v, 0) ||
                std::cmp_greater(v, static_cast<std::underlying_type_t<T>>(
                                        lastEnumerator(T{})))) {
                failKey(key, "value " + std::to_string(v) +
                                 " is past the last enumerator");
            }
        } else if (!std::in_range<T>(v)) {
            failKey(key, "value " + std::to_string(v) +
                             " does not fit the field's type");
        }
        return static_cast<T>(v);
    }

    /** @return the value of the next field, which must be @p key. */
    std::string_view next(std::string_view key);

    /**
     * @return the count of a `<n>:` vector field and sets @p elems to
     * the text after the colon.
     */
    std::uint64_t counted(std::string_view key, std::string_view v,
                          std::string_view& elems) const;

    /** Reads a comma-separated integer vector field. */
    template <typename Int>
    std::vector<Int> intVec(std::string_view key);

    [[noreturn]] void failKey(std::string_view key,
                              const std::string& why) const;
};

}  // namespace yukta::obs

#endif  // YUKTA_OBS_STATEIO_H_
