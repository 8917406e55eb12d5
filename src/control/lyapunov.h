#ifndef YUKTA_CONTROL_LYAPUNOV_H_
#define YUKTA_CONTROL_LYAPUNOV_H_

/**
 * @file
 * Discrete Lyapunov equation solver (Smith doubling), which computes
 * the gramians used by balanced truncation.
 */

#include "linalg/matrix.h"

namespace yukta::control {

/**
 * Solves the discrete Lyapunov equation A X A^T - X + Q = 0 by Smith
 * doubling iteration.
 *
 * @param a square matrix with spectral radius < 1.
 * @param q symmetric right-hand side.
 * @throws std::runtime_error when the iteration diverges (unstable A).
 */
linalg::Matrix dlyap(const linalg::Matrix& a, const linalg::Matrix& q);

}  // namespace yukta::control

#endif  // YUKTA_CONTROL_LYAPUNOV_H_
