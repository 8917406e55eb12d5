#ifndef YUKTA_CONTROL_DISCRETIZE_H_
#define YUKTA_CONTROL_DISCRETIZE_H_

/**
 * @file
 * Bilinear (Tustin) transformation between continuous and discrete
 * time. Yukta synthesizes H-infinity controllers in continuous time
 * (where the two-Riccati formulas are clean) and maps them to the
 * 500 ms controller invocation period with these routines.
 */

#include "control/state_space.h"

namespace yukta::control {

/**
 * Discretizes a continuous-time system with the bilinear (Tustin)
 * map s = (2/Ts)(z-1)/(z+1).
 *
 * @param sys continuous-time system.
 * @param ts sample period in seconds (> 0).
 * @throws std::invalid_argument when @p sys is discrete or ts <= 0.
 * @throws std::runtime_error when (I - A Ts/2) is singular.
 */
StateSpace c2d(const StateSpace& sys, double ts);

/**
 * Maps a discrete-time system back to continuous time with the
 * inverse bilinear transformation.
 *
 * @throws std::runtime_error when (A + I) is singular (pole at z=-1).
 */
StateSpace d2c(const StateSpace& sys);

}  // namespace yukta::control

#endif  // YUKTA_CONTROL_DISCRETIZE_H_
