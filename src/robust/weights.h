#ifndef YUKTA_ROBUST_WEIGHTS_H_
#define YUKTA_ROBUST_WEIGHTS_H_

/**
 * @file
 * Shaping weights used when assembling generalized plants. Yukta uses
 * strictly proper first-order performance weights so that the
 * synthesized plant satisfies the D11 = 0 assumption of the DGKF
 * central controller.
 */

#include <vector>

#include "control/state_space.h"

namespace yukta::robust {

/**
 * First-order weight W(s) = hf + (dc - hf) * wc / (s + wc):
 * gain @p dc at DC rolling to @p hf above corner @p wc.
 *
 * @param dc DC gain (> 0 for performance weights).
 * @param wc corner frequency in rad/s (> 0).
 * @param hf high-frequency gain (0 gives a strictly proper weight).
 * @return continuous-time SISO weight.
 */
control::StateSpace makeWeight(double dc, double wc, double hf = 0.0);

/**
 * Diagonal stack of first-order weights with per-channel DC gains and
 * a common corner/high-frequency behaviour.
 */
control::StateSpace makeDiagonalWeight(const std::vector<double>& dc_gains,
                                       double wc, double hf = 0.0);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_WEIGHTS_H_
