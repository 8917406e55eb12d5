// Checkpoint field encoding: integer fields parse the whole value or
// fail naming the key, the extreme values round-trip exactly, and a
// vector is one field whose count and element digits are checked.
#include <bit>
#include <cfloat>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stateio.h"

namespace yukta::obs {
namespace {

/** @return the message StateReader throws for field "k" = @p value. */
std::string
readError(bool is_signed, const std::string& value)
{
    StateReader r("k=" + value + "\n");
    try {
        if (is_signed) {
            (void)r.i64("k");
        } else {
            (void)r.u64("k");
        }
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

TEST(StateReader, MalformedIntegersThrowNamingTheKey)
{
    const struct
    {
        bool is_signed;
        const char* value;
    } cases[] = {
        {true, "-"},                       // sign without digits
        {false, "18446744073709551616"},   // UINT64_MAX + 1
        {true, "99999999999999999999"},    // above LLONG_MAX
        {true, "-9223372036854775809"},    // below LLONG_MIN
        {false, "-1"},                     // sign on an unsigned field
        {false, "12x"},                    // trailing characters
        {true, "+5"},                      // explicit plus sign
        {true, " 5"},                      // leading blank
        {false, ""},                       // empty value
    };
    for (const auto& c : cases) {
        const std::string err = readError(c.is_signed, c.value);
        EXPECT_NE(err.find("reading 'k'"), std::string::npos)
            << "value '" << c.value << "' gave '" << err << "'";
    }
}

TEST(StateReader, IntegerExtremesRoundTripExactly)
{
    const long long lo = std::numeric_limits<long long>::min();
    const long long hi = std::numeric_limits<long long>::max();
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();

    StateWriter w;
    w.i64("lo", lo);
    w.i64("hi", hi);
    w.u64("top", top);
    w.intvec("v", std::vector<long long>{lo, -1, 0, hi});

    StateReader r(w.take());
    EXPECT_EQ(r.i64("lo"), lo);
    EXPECT_EQ(r.i64("hi"), hi);
    EXPECT_EQ(r.u64("top"), top);
    const std::vector<long long> want = {lo, -1, 0, hi};
    EXPECT_EQ(r.i64vec("v"), want);
    EXPECT_TRUE(r.atEnd());
}

/** @return the bit pattern of each element of @p v. */
std::vector<std::uint64_t>
bitsOf(const std::vector<double>& v)
{
    std::vector<std::uint64_t> out;
    for (const double x : v) {
        out.push_back(std::bit_cast<std::uint64_t>(x));
    }
    return out;
}

TEST(StateReader, DoubleSpecialsRoundTripBitExactly)
{
    const std::vector<double> specials = {
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::bit_cast<double>(0x7ff4000000c0ffeeull),  // NaN + payload
        std::numeric_limits<double>::denorm_min(),
        DBL_MAX,
    };
    StateWriter w;
    for (const double x : specials) {
        w.f64("x", x);
    }
    w.f64vec("v", specials);

    StateReader r(w.take());
    for (const double x : specials) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("x")),
                  std::bit_cast<std::uint64_t>(x));
    }
    EXPECT_EQ(bitsOf(r.f64vec("v")), bitsOf(specials));
    EXPECT_TRUE(r.atEnd());
}

TEST(StateReader, EmptyVectorsRoundTrip)
{
    StateWriter w;
    w.f64vec("f", {});
    w.intvec("i", std::vector<long long>{});
    w.intvec("u", std::vector<std::uint64_t>{});
    StateReader r(w.take());
    EXPECT_TRUE(r.f64vec("f").empty());
    EXPECT_TRUE(r.i64vec("i").empty());
    EXPECT_TRUE(r.u64vec("u").empty());
    EXPECT_TRUE(r.atEnd());
}

TEST(StateReader, VectorIsOneFieldWithItsCount)
{
    StateWriter w;
    w.f64vec("f", {1.0, -2.0});
    w.intvec("i", std::vector<long long>{-3, 0, 7});
    w.intvec("u", std::vector<std::uint64_t>{5});
    EXPECT_EQ(w.take(),
              "f=2:3ff0000000000000c000000000000000\n"
              "i=3:-3,0,7\n"
              "u=1:5\n");
}

TEST(StateReader, MalformedVectorsThrowNamingTheKey)
{
    const std::string one = "3ff0000000000000";
    const struct
    {
        char type;  // f64vec, i64vec or u64vec
        std::string value;
    } cases[] = {
        {'f', "2:" + one},                     // count above elements
        {'f', "1:" + one + one},               // count below elements
        {'f', "1:" + one.substr(0, 15)},       // short element
        {'f', "1:3ff000000000000g"},           // non-hex digit
        {'f', "0:" + one},                     // elements after count 0
        {'f', one},                            // no count
        {'i', "3:1,2"},                        // too few elements
        {'i', "2:123"},                        // too few, long enough
        {'i', "1:1,2"},                        // too many elements
        {'i', "2:1,,"},                        // empty element
        {'i', "2:1,x"},                        // not an integer
        {'u', "2:1,-2"},                       // sign on unsigned
        {'u', "0:7"},                          // elements after count 0
        {'u', "-1:"},                          // negative count
    };
    for (const auto& c : cases) {
        StateReader r("vec=" + c.value + "\n");
        std::string err;
        try {
            if (c.type == 'f') {
                (void)r.f64vec("vec");
            } else if (c.type == 'i') {
                (void)r.i64vec("vec");
            } else {
                (void)r.u64vec("vec");
            }
        } catch (const std::runtime_error& e) {
            err = e.what();
        }
        EXPECT_NE(err.find("reading 'vec'"), std::string::npos)
            << c.type << " '" << c.value << "' gave '" << err << "'";
    }
}

TEST(StateReader, KeyMismatchAndEndOfBodyNameTheKey)
{
    StateReader r("a=1\n");
    try {
        (void)r.u64("b");
        ADD_FAILURE() << "read 'a' as 'b'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("reading 'b': found 'a'"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(r.u64("a"), 1u);
    EXPECT_TRUE(r.atEnd());
    EXPECT_THROW((void)r.u64("c"), std::runtime_error);
}

TEST(StateReader, StringsRoundTripThroughPercentEncoding)
{
    const std::string raw = "a=b%c\nd\re;f";
    StateWriter w;
    w.str("s", raw);
    w.str("t", "");
    const std::string body = w.take();
    EXPECT_EQ(body, "s=a%3db%25c%0ad%0de;f\nt=\n");
    StateReader r(body);
    EXPECT_EQ(r.str("s"), raw);
    EXPECT_EQ(r.str("t"), "");
    EXPECT_TRUE(r.atEnd());
}

/** A checkpointed enum; lastEnumerator bounds what a restore accepts. */
enum class Rung
{
    kLow,
    kHigh,
};

constexpr Rung lastEnumerator(Rung)
{
    return Rung::kHigh;
}

/** @return the message a one-field read of @p body throws, or "". */
template <typename Read>
std::string
refusal(const std::string& body, Read read)
{
    StateReader r(body);
    try {
        read(r);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

// The reference forms store a field into a member of its own type and
// refuse what does not fit it; count() refuses a count the body
// cannot hold before it allocates; expect() refuses any value but the
// reader's own. Every refusal names the key.
TEST(StateReader, ReferenceFormsRefuseWhatDoesNotFitTheMember)
{
    StateWriter w;
    int small = -7;
    Rung rung = Rung::kHigh;
    std::vector<int> items(3);
    w.i64("small", small);
    w.u64("rung", rung);
    w.count("items", items);
    w.expect("flag", true);
    w.expect("size", std::uint64_t{46});
    StateReader r(w.take());
    small = 0;
    rung = Rung::kLow;
    items.clear();
    r.i64("small", small);
    r.u64("rung", rung);
    r.count("items", items);
    r.expect("flag", true);
    r.expect("size", std::uint64_t{46});
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(small, -7);
    EXPECT_EQ(rung, Rung::kHigh);
    EXPECT_EQ(items.size(), 3u);

    int i = 0;
    std::size_t z = 0;
    EXPECT_NE(refusal("k=2147483648\n",
                      [&](StateReader& rd) { rd.i64("k", i); })
                  .find("reading 'k': value 2147483648 does not fit"),
              std::string::npos);
    EXPECT_NE(refusal("k=-2147483649\n",
                      [&](StateReader& rd) { rd.i64("k", i); })
                  .find("reading 'k'"),
              std::string::npos);
    EXPECT_NE(refusal("k=4294967302\n",
                      [&](StateReader& rd) { rd.u64("k", i); })
                  .find("reading 'k'"),
              std::string::npos);
    EXPECT_EQ(refusal("k=4294967302\n",
                      [&](StateReader& rd) { rd.u64("k", z); }),
              "");
    EXPECT_NE(refusal("k=2\n", [&](StateReader& rd) { rd.u64("k", rung); })
                  .find("reading 'k': value 2 is past the last enumerator"),
              std::string::npos);
    EXPECT_NE(refusal("k=6\nx=1\n",
                      [&](StateReader& rd) { rd.count("k", items); })
                  .find("reading 'k': count 6 exceeds the bytes left"),
              std::string::npos);
    EXPECT_EQ(refusal("k=4\nx=1\n",
                      [&](StateReader& rd) { rd.count("k", items); }),
              "");
    EXPECT_NE(refusal("k=0\n",
                      [&](StateReader& rd) {
                          rd.expect("k", true, "set it back");
                      })
                  .find("reading 'k': saved 0 where this instance has 1; "
                        "set it back"),
              std::string::npos);
    EXPECT_NE(refusal("k=45\n",
                      [&](StateReader& rd) {
                          rd.expect("k", std::uint64_t{46});
                      })
                  .find("reading 'k': saved 45 where this instance has 46"),
              std::string::npos);
}

// intvec writes a vector of any integer type in one encoding and reads
// it back with each element checked against the member's type.
TEST(StateReader, IntegerVectorReferenceFormChecksEachElement)
{
    std::vector<int> dirs{1, -1, 1};
    std::vector<std::uint8_t> flags{0, 1, 255};
    StateWriter w;
    w.intvec("dirs", dirs);
    w.intvec("flags", flags);
    const std::string body = w.take();
    EXPECT_EQ(body, "dirs=3:1,-1,1\nflags=3:0,1,255\n");
    StateReader r(body);
    dirs.clear();
    flags.clear();
    r.intvec("dirs", dirs);
    r.intvec("flags", flags);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(dirs, (std::vector<int>{1, -1, 1}));
    EXPECT_EQ(flags, (std::vector<std::uint8_t>{0, 1, 255}));

    EXPECT_NE(refusal("k=2:1,4294967297\n",
                      [&](StateReader& rd) { rd.intvec("k", dirs); })
                  .find("reading 'k': value 4294967297 does not fit"),
              std::string::npos);
    EXPECT_NE(refusal("k=3:1,256,0\n",
                      [&](StateReader& rd) { rd.intvec("k", flags); })
                  .find("reading 'k': value 256 does not fit"),
              std::string::npos);
    EXPECT_NE(refusal("k=1:-1\n",
                      [&](StateReader& rd) { rd.intvec("k", flags); })
                  .find("reading 'k'"),
              std::string::npos);
}

}  // namespace
}  // namespace yukta::obs
