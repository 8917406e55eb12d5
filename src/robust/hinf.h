#ifndef YUKTA_ROBUST_HINF_H_
#define YUKTA_ROBUST_HINF_H_

/**
 * @file
 * H-infinity output-feedback synthesis via the two-Riccati (DGKF)
 * central controller, with gamma bisection. This is the K-step of
 * Yukta's D-K iteration (mu-synthesis).
 *
 * The synthesis is performed in continuous time, where the DGKF
 * formulas apply; discrete plants are mapped through the bilinear
 * transform (which preserves the H-infinity norm) and the controller
 * is mapped back.
 */

#include <optional>

#include "control/state_space.h"

namespace yukta::robust {

/** Partition of a generalized plant P: [w; u] -> [z; y]. */
struct PlantPartition
{
    std::size_t nw = 0;  ///< Exogenous inputs (first input block).
    std::size_t nu = 0;  ///< Control inputs (last input block).
    std::size_t nz = 0;  ///< Performance outputs (first output block).
    std::size_t ny = 0;  ///< Measured outputs (last output block).
};

/** Result of an H-infinity synthesis. */
struct HinfResult
{
    control::StateSpace k;   ///< Controller (y -> u), same timebase as P.
    double gamma = 0.0;      ///< Guaranteed closed-loop norm bound.
};

/**
 * Approximates the H-infinity norm of a stable system by a dense
 * frequency sweep with local refinement.
 *
 * @param sys stable LTI system.
 * @param grid_points sweep resolution.
 */
double hinfNorm(const control::StateSpace& sys, std::size_t grid_points = 96);

/**
 * Attempts synthesis at a fixed gamma.
 *
 * @param p generalized continuous-time plant.
 * @param part port partition (nw+nu / nz+ny must match P).
 * @param gamma target closed-loop norm.
 * @return controller on success; std::nullopt when the Riccati
 *   conditions fail or the validated closed loop exceeds gamma.
 */
std::optional<control::StateSpace>
hinfSynthesizeAtGamma(const control::StateSpace& p, const PlantPartition& part,
                      double gamma);

/**
 * Bisects gamma in [gamma_lo, gamma_hi] and returns the best
 * controller found. Works for continuous or discrete plants (discrete
 * plants detour through the bilinear transform).
 *
 * @return std::nullopt when even gamma_hi is infeasible.
 */
std::optional<HinfResult> hinfSynthesize(const control::StateSpace& p,
                                         const PlantPartition& part,
                                         double gamma_lo = 0.05,
                                         double gamma_hi = 1e4,
                                         int bisection_steps = 24);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_HINF_H_
