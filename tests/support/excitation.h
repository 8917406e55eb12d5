#ifndef YUKTA_TESTS_SUPPORT_EXCITATION_H_
#define YUKTA_TESTS_SUPPORT_EXCITATION_H_

/**
 * @file
 * Excitation signal design for black-box system identification
 * (Sec. IV-C): the training runs set the would-be controller inputs
 * "in a variety of ways". We provide pseudo-random binary sequences
 * and multi-level random staircases over each input's allowed grid.
 * Test data only: the product's training campaign (core/training)
 * drives its own excitation.
 */

#include <cstdint>
#include <vector>

#include "linalg/vector.h"

namespace yukta::sysid {

/**
 * Pseudo-random binary sequence (maximal-length LFSR based) toggling
 * between @p lo and @p hi.
 *
 * @param steps sequence length.
 * @param lo low level, @p hi high level.
 * @param hold samples to hold each chip (>= 1).
 * @param seed LFSR seed (nonzero).
 */
std::vector<double> prbs(std::size_t steps, double lo, double hi,
                         std::size_t hold = 1, std::uint32_t seed = 0xACE1u);

/**
 * Random staircase over a quantized range: every @p hold steps pick a
 * uniformly random level from {min, min+step, ..., max}.
 */
std::vector<double> randomStaircase(std::size_t steps, double min,
                                    double max, double step,
                                    std::size_t hold, std::uint32_t seed);

/**
 * Builds a multi-channel excitation: channel k is a random staircase
 * over [min[k], max[k]] with quantization step[k], using decorrelated
 * seeds and hold times.
 *
 * @return per-step input vectors (size steps).
 */
std::vector<linalg::Vector>
multiChannelExcitation(std::size_t steps, const std::vector<double>& min,
                       const std::vector<double>& max,
                       const std::vector<double>& step, std::size_t hold,
                       std::uint32_t seed);

}  // namespace yukta::sysid

#endif  // YUKTA_TESTS_SUPPORT_EXCITATION_H_
