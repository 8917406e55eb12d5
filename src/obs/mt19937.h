#ifndef YUKTA_OBS_MT19937_H_
#define YUKTA_OBS_MT19937_H_

/**
 * @file
 * The 32-bit Mersenne Twister of [rand.eng.mers] with its state in
 * reach: the same seeding, twist and tempering as std::mt19937, so
 * every output -- and every <random> distribution drawn through it --
 * equals the standard engine's, but its 624 words and its position
 * can be read and restored directly. A checkpoint then stores the
 * engine as 624 fixed-width words instead of the standard engine's
 * ~6.7 KB of decimal stream text, and restoring it costs the same at
 * any simulated time.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace yukta::obs {

/** std::mt19937-equivalent engine whose state is accessible. */
class Mt19937
{
  public:
    /** Same result type as std::mt19937. */
    using result_type = std::uint_fast32_t;

    /** Number of 32-bit state words (n). */
    static constexpr std::size_t kWords = 624;

    /** The standard engine's default seed. */
    static constexpr result_type default_seed = 5489u;

    /** @return the smallest output. */
    static constexpr result_type min() { return 0; }

    /** @return the largest output. */
    static constexpr result_type max() { return 0xffffffffu; }

    /** Seeds with default_seed, as std::mt19937() does. */
    Mt19937() { seed(default_seed); }

    /** Seeds with @p value, as std::mt19937(value) does. */
    explicit Mt19937(result_type value) { seed(value); }

    /** Re-seeds with @p value ([rand.eng.mers] initialization). */
    void seed(result_type value)
    {
        x_[0] = static_cast<std::uint32_t>(value);
        for (std::size_t i = 1; i < kWords; ++i) {
            const std::uint32_t prev = x_[i - 1];
            x_[i] = 1812433253u * (prev ^ (prev >> 30)) +
                    static_cast<std::uint32_t>(i);
        }
        pos_ = kWords;
    }

    /** @return the next tempered output. */
    result_type operator()()
    {
        if (pos_ >= kWords) {
            twist();
        }
        std::uint32_t z = x_[pos_++];
        z ^= z >> 11;
        z ^= (z << 7) & 0x9d2c5680u;
        z ^= (z << 15) & 0xefc60000u;
        z ^= z >> 18;
        return z;
    }

    /** @return the state words x[0..n). */
    const std::array<std::uint32_t, kWords>& words() const { return x_; }

    /** @return the index of the next word to temper (0..n). */
    std::size_t position() const { return pos_; }

    /**
     * Replaces the state with @p words at @p position.
     * @throws std::invalid_argument when @p position exceeds n.
     */
    void restore(const std::array<std::uint32_t, kWords>& words,
                 std::size_t position)
    {
        if (position > kWords) {
            throw std::invalid_argument(
                "Mt19937::restore: position past the state");
        }
        x_ = words;
        pos_ = position;
    }

  private:
    static constexpr std::size_t kShift = 397;  ///< m.
    static constexpr std::uint32_t kUpper = 0x80000000u;
    static constexpr std::uint32_t kLower = 0x7fffffffu;
    static constexpr std::uint32_t kMatrix = 0x9908b0dfu;  ///< a.

    /** Regenerates all n words, in libstdc++'s two-loop order. */
    void twist()
    {
        for (std::size_t k = 0; k < kWords - kShift; ++k) {
            const std::uint32_t y = (x_[k] & kUpper) | (x_[k + 1] & kLower);
            x_[k] = x_[k + kShift] ^ (y >> 1) ^ ((y & 1u) ? kMatrix : 0u);
        }
        for (std::size_t k = kWords - kShift; k < kWords - 1; ++k) {
            const std::uint32_t y = (x_[k] & kUpper) | (x_[k + 1] & kLower);
            x_[k] = x_[k + kShift - kWords] ^ (y >> 1) ^
                    ((y & 1u) ? kMatrix : 0u);
        }
        const std::uint32_t y = (x_[kWords - 1] & kUpper) | (x_[0] & kLower);
        x_[kWords - 1] =
            x_[kShift - 1] ^ (y >> 1) ^ ((y & 1u) ? kMatrix : 0u);
        pos_ = 0;
    }

    std::array<std::uint32_t, kWords> x_{};
    std::size_t pos_ = kWords;
};

}  // namespace yukta::obs

#endif  // YUKTA_OBS_MT19937_H_
