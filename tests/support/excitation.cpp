#include "support/excitation.h"

#include <cmath>
#include <random>
#include <stdexcept>

namespace yukta::sysid {

using linalg::Vector;

std::vector<double>
prbs(std::size_t steps, double lo, double hi, std::size_t hold,
     std::uint32_t seed)
{
    if (hold == 0) {
        throw std::invalid_argument("prbs: hold must be >= 1");
    }
    if (seed == 0) {
        seed = 1;
    }
    std::vector<double> out;
    out.reserve(steps);
    std::uint32_t lfsr = seed & 0xFFFFu;
    double level = lo;
    for (std::size_t i = 0; i < steps; ++i) {
        if (i % hold == 0) {
            // 16-bit maximal LFSR, taps 16 14 13 11.
            std::uint32_t bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^
                                 (lfsr >> 5)) &
                                1u;
            lfsr = (lfsr >> 1) | (bit << 15);
            level = (lfsr & 1u) ? hi : lo;
        }
        out.push_back(level);
    }
    return out;
}

std::vector<double>
randomStaircase(std::size_t steps, double min, double max, double step,
                std::size_t hold, std::uint32_t seed)
{
    if (hold == 0 || max <= min) {
        throw std::invalid_argument("randomStaircase: bad parameters");
    }
    std::mt19937 rng(seed);
    std::size_t levels =
        step > 0.0
            ? static_cast<std::size_t>(std::floor((max - min) / step)) + 1
            : 0;
    std::uniform_int_distribution<std::size_t> level_dist(
        0, levels > 0 ? levels - 1 : 0);
    std::uniform_real_distribution<double> cont_dist(min, max);

    std::vector<double> out;
    out.reserve(steps);
    double value = min;
    for (std::size_t i = 0; i < steps; ++i) {
        if (i % hold == 0) {
            value = levels > 0 ? min + step * level_dist(rng)
                               : cont_dist(rng);
        }
        out.push_back(value);
    }
    return out;
}

std::vector<Vector>
multiChannelExcitation(std::size_t steps, const std::vector<double>& min,
                       const std::vector<double>& max,
                       const std::vector<double>& step, std::size_t hold,
                       std::uint32_t seed)
{
    std::size_t nch = min.size();
    if (max.size() != nch || step.size() != nch || nch == 0) {
        throw std::invalid_argument("multiChannelExcitation: size mismatch");
    }
    std::vector<std::vector<double>> chans(nch);
    for (std::size_t k = 0; k < nch; ++k) {
        // Different holds and seeds decorrelate channels.
        std::size_t h = hold + k;
        chans[k] = randomStaircase(steps, min[k], max[k], step[k], h,
                                   seed + 977u * static_cast<std::uint32_t>(k));
    }
    std::vector<Vector> out(steps, Vector(nch));
    for (std::size_t i = 0; i < steps; ++i) {
        for (std::size_t k = 0; k < nch; ++k) {
            out[i][k] = chans[k][i];
        }
    }
    return out;
}

}  // namespace yukta::sysid
