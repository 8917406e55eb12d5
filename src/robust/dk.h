#ifndef YUKTA_ROBUST_DK_H_
#define YUKTA_ROBUST_DK_H_

/**
 * @file
 * D-K iteration (mu-synthesis): alternating H-infinity K-steps on a
 * D-scaled plant with constant-D fitting from the mu upper bound.
 * This reproduces the controller-search loop the paper runs in
 * MATLAB: find K, evaluate SSV, and keep tightening until
 * SSV <= 1 (min(s) >= 1) or the iteration budget is exhausted.
 */

#include <optional>

#include "control/state_space.h"
#include "robust/hinf.h"
#include "robust/uncertainty.h"

namespace yukta::robust {

/** Options for dkSynthesize(). */
struct DkOptions
{
    int max_iterations = 4;       ///< D-K rounds.
    std::size_t mu_grid = 32;     ///< Frequencies in the mu sweep.
    double gamma_lo = 0.05;       ///< Bisection floor.
    double gamma_hi = 1e4;        ///< Bisection ceiling.
    int bisection_steps = 20;     ///< Gamma bisection iterations.
};

/**
 * Result of a mu-synthesis run. It carries no SSV certificate: the
 * caller certifies the controller it ships (ssvSynthesize sweeps the
 * discretized, possibly reduced loop), and a single-round run sweeps
 * nothing at all.
 */
struct DkResult
{
    control::StateSpace k;  ///< Controller (y -> u).
    double gamma = 0.0;     ///< K-step gamma of k's round.
    int iterations = 0;     ///< k's round, counted from 1.
};

/**
 * Runs D-K iteration on a generalized plant whose input/output ports
 * are ordered [d_1..d_k, w_perf | u] -> [f_1..f_k, z_perf | y], with
 * @p structure listing the uncertainty blocks followed by one
 * performance block.
 *
 * Round i sweeps mu over its closed loop only when a later step reads
 * the sweep: when i > 0 (to compare with the best round so far) or
 * i + 1 < max_iterations (to fit the next round's D). So with
 * max_iterations = 1 no mu is computed, and the controller is the
 * first round's K once its loop is stable.
 *
 * @param p generalized plant (discrete or continuous).
 * @param part H-infinity partition: nw = all perturbation+performance
 *   inputs, nz = all perturbation+performance outputs.
 * @param structure uncertainty blocks + trailing performance block;
 *   totalOutputs() must equal part.nw and totalInputs() part.nz.
 * @param workers threads for each mu sweep (muFrequencySweep). Not an
 *   option: it changes no bit of the result, and DkOptions is part of
 *   the design-cache key.
 * @return the controller of the round with the lowest mu peak, or
 *   std::nullopt when no stabilizing controller is found at any gamma.
 */
std::optional<DkResult> dkSynthesize(const control::StateSpace& p,
                                     const PlantPartition& part,
                                     const BlockStructure& structure,
                                     const DkOptions& options = {},
                                     std::size_t workers = 1);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_DK_H_
