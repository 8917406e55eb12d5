#ifndef YUKTA_OBS_STATEIO_H_
#define YUKTA_OBS_STATEIO_H_

/**
 * @file
 * Bit-exact state snapshot encoding for checkpoint/resume.
 *
 * A checkpoint is a flat, strictly ordered `key=value` text stream.
 * Every stateful component appends its fields through StateWriter and
 * reads them back through StateReader in the same order; a mismatch
 * (missing field, renamed key, version skew) fails loudly with the
 * offending key instead of silently desynchronizing the simulation.
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

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
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

    /** Writes `key=<n>:` then n comma-separated integers. */
    void i64vec(std::string_view key, const std::vector<long long>& v);

    /** Writes `key=<n>:` then n comma-separated integers. */
    void u64vec(std::string_view key,
                const std::vector<std::uint64_t>& v);

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

    /** @return the accumulated body, moved out; the writer is empty. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;

    /** Appends `key=`. */
    void begin(std::string_view key);
};

/**
 * Strictly sequential reader over a StateWriter body. Each accessor
 * consumes the next line and requires its key to match.
 * @throws std::runtime_error naming the key on key mismatch,
 * malformed values, or reading past the end.
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

    /** Reads an i64vec written by StateWriter::i64vec. */
    std::vector<long long> i64vec(std::string_view key);

    /** Reads a u64vec written by StateWriter::u64vec. */
    std::vector<std::uint64_t> u64vec(std::string_view key);

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

    /** @return true when every field has been consumed. */
    bool atEnd() const { return pos_ == body_.size(); }

  private:
    std::string body_;
    std::size_t pos_ = 0;

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
