#ifndef YUKTA_CONTROL_INTERCONNECT_H_
#define YUKTA_CONTROL_INTERCONNECT_H_

/**
 * @file
 * Interconnections of LTI systems: series, block append, and the
 * lower linear fractional transformation (LFT) that closes a
 * generalized plant with its controller.
 */

#include "control/state_space.h"

namespace yukta::control {

/** @return g2 * g1 (u -> g1 -> g2 -> y). */
StateSpace series(const StateSpace& g1, const StateSpace& g2);

/** @return diag(g1, g2): inputs and outputs concatenated. */
StateSpace append(const StateSpace& g1, const StateSpace& g2);

/**
 * Lower LFT: closes the bottom ports of a generalized plant P with
 * the controller K.
 *
 * P maps [w; u] -> [z; y] with nz/nw the performance channel sizes;
 * K maps y -> u. The result maps w -> z.
 *
 * @param p generalized plant.
 * @param k controller; k.numInputs() must equal ny, k.numOutputs() nu.
 * @param nz number of performance outputs z (the first nz outputs).
 * @param nw number of exogenous inputs w (the first nw inputs).
 */
StateSpace lftLower(const StateSpace& p, const StateSpace& k,
                    std::size_t nz, std::size_t nw);

}  // namespace yukta::control

#endif  // YUKTA_CONTROL_INTERCONNECT_H_
