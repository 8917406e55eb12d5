#ifndef YUKTA_EXAMPLES_CLI_NUMBER_H_
#define YUKTA_EXAMPLES_CLI_NUMBER_H_

/**
 * @file
 * Strict numeric flag parsing for the command-line drivers: a flag
 * value is one whole number or it is refused, so a typo exits 2 with
 * a message instead of running with 0.
 */

#include <charconv>
#include <cmath>
#include <string>
#include <system_error>
#include <type_traits>

namespace yukta::cli {

/**
 * Parses all of @p v as a finite number; false on junk, trailing
 * text, overflow, or a sign an unsigned @p T cannot hold.
 */
template <typename T>
bool
parseNumber(const std::string& v, T* out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, *out);
    if (ec != std::errc() || ptr != end) {
        return false;
    }
    if constexpr (std::is_floating_point_v<T>) {
        return std::isfinite(*out);
    }
    return true;
}

}  // namespace yukta::cli

#endif  // YUKTA_EXAMPLES_CLI_NUMBER_H_
