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
#include <vector>

#include "control/state_space.h"
#include "robust/hinf.h"
#include "robust/mu.h"
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

/** Result of a mu-synthesis run. */
struct DkResult
{
    control::StateSpace k;          ///< Controller (y -> u).
    double mu_peak = 0.0;           ///< Certified SSV upper-bound peak.
    double min_s = 0.0;             ///< 1 / mu_peak (paper's min(s)).
    double gamma = 0.0;             ///< Final K-step gamma.
    std::vector<double> d_scales;   ///< Final constant D scalings.
    MuSweep sweep;                  ///< Final mu sweep of the loop.
    int iterations = 0;             ///< Rounds actually run.
};

/**
 * Runs D-K iteration on a generalized plant whose input/output ports
 * are ordered [d_1..d_k, w_perf | u] -> [f_1..f_k, z_perf | y], with
 * @p structure listing the uncertainty blocks followed by one
 * performance block.
 *
 * @param p generalized plant (discrete or continuous).
 * @param part H-infinity partition: nw = all perturbation+performance
 *   inputs, nz = all perturbation+performance outputs.
 * @param structure uncertainty blocks + trailing performance block;
 *   totalOutputs() must equal part.nw and totalInputs() part.nz.
 * @param workers threads for each mu sweep (muFrequencySweep). Not an
 *   option: it changes no bit of the result, and DkOptions is part of
 *   the design-cache key.
 * @return best controller with its SSV certificate, or std::nullopt
 *   when no stabilizing controller is found at any gamma.
 */
std::optional<DkResult> dkSynthesize(const control::StateSpace& p,
                                     const PlantPartition& part,
                                     const BlockStructure& structure,
                                     const DkOptions& options = {},
                                     std::size_t workers = 1);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_DK_H_
