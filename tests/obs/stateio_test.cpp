// Checkpoint field encoding: integer fields parse the whole value or
// fail naming the key, and the extreme values round-trip exactly.
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
    w.i64vec("v", {lo, -1, 0, hi});

    StateReader r(w.dump());
    EXPECT_EQ(r.i64("lo"), lo);
    EXPECT_EQ(r.i64("hi"), hi);
    EXPECT_EQ(r.u64("top"), top);
    const std::vector<long long> want = {lo, -1, 0, hi};
    EXPECT_EQ(r.i64vec("v"), want);
    EXPECT_TRUE(r.atEnd());
}

}  // namespace
}  // namespace yukta::obs
