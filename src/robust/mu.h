#ifndef YUKTA_ROBUST_MU_H_
#define YUKTA_ROBUST_MU_H_

/**
 * @file
 * Structured Singular Value (SSV / mu) analysis.
 *
 * For a complex matrix M and block structure Delta, the SSV is
 *
 *   mu(M) = 1 / min{ sigma_max(Delta) : det(I - M Delta) = 0 },
 *
 * the reciprocal of the smallest structured perturbation that makes
 * the loop singular (Eq. 1 of the paper in its scaled form). We
 * compute the standard D-scaling upper bound
 *
 *   mu(M) <= min_D sigma_max(D_L M D_R^{-1})
 *
 * with one positive scalar per block (exact for <= 3 full blocks,
 * which covers Yukta's {model, quantization, performance} structure),
 * and a power-iteration style lower bound for cross-checking.
 */

#include <vector>

#include "control/state_space.h"
#include "linalg/cmatrix.h"
#include "robust/uncertainty.h"

namespace yukta::robust {

/** Result of a mu computation at one frequency. */
struct MuBound
{
    double upper = 0.0;            ///< D-scaled upper bound.
    double lower = 0.0;            ///< Power-iteration lower bound.
    std::vector<double> d_scales;  ///< Optimal per-block D scalings.
};

/**
 * Computes the mu upper (and lower) bound of @p m with respect to
 * @p structure.
 *
 * @param m complex matrix of shape (totalInputs x totalOutputs) --
 *   i.e. M maps the stacked d channel to the stacked f channel.
 * @throws std::invalid_argument when shapes disagree.
 */
MuBound computeMu(const linalg::CMatrix& m, const BlockStructure& structure);

/** Result of sweeping mu over a frequency grid. */
struct MuSweep
{
    std::vector<double> freqs;  ///< Angular frequencies (rad/s).
    std::vector<MuBound> mu;    ///< Bound per frequency.
    double peak = 0.0;          ///< max over frequencies of mu.upper.
    double peak_freq = 0.0;     ///< argmax frequency.
};

/**
 * Sweeps mu of a (closed-loop) system N over a log frequency grid.
 * For discrete systems the grid spans (0, pi/Ts].
 *
 * @param n system whose input/output dimensions match the structure.
 * @param structure block structure.
 * @param grid_points number of grid frequencies.
 * @param workers threads (the caller among them) that compute the
 *   per-frequency bounds. Each point is independent, so the result is
 *   bit-identical for every value; 0 and 1 both run serially.
 */
MuSweep muFrequencySweep(const control::StateSpace& n,
                         const BlockStructure& structure,
                         std::size_t grid_points = 48,
                         std::size_t workers = 1);

/**
 * Builds the constant D-scaling matrices (left and right) from
 * per-block scalars, for scaling a plant's perturbation channels.
 *
 * @param structure block structure.
 * @param d_scales one positive scalar per block.
 * @return {d_left (totalInputs sq.), d_right_inv (totalOutputs sq.)}.
 */
std::pair<linalg::Matrix, linalg::Matrix>
buildDScalings(const BlockStructure& structure,
               const std::vector<double>& d_scales);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_MU_H_
