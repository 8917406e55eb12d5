#ifndef YUKTA_CONTROL_STATE_SPACE_H_
#define YUKTA_CONTROL_STATE_SPACE_H_

/**
 * @file
 * Linear time-invariant state-space systems, continuous or discrete:
 *
 *   continuous:  dx/dt = A x + B u,   y = C x + D u
 *   discrete:    x(T+1) = A x(T) + B u(T),   y(T) = C x(T) + D u(T)
 *
 * This is the lingua franca between system identification, controller
 * synthesis, and the runtime controllers.
 */

#include <cstddef>
#include <vector>

#include "linalg/cmatrix.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace yukta::control {

/** LTI system in state-space form. */
struct StateSpace
{
    linalg::Matrix a;  ///< State evolution (n x n).
    linalg::Matrix b;  ///< Input map (n x m).
    linalg::Matrix c;  ///< Output map (p x n).
    linalg::Matrix d;  ///< Feed-through (p x m).

    /** Sample time in seconds; 0 means continuous time. */
    double ts = 0.0;

    StateSpace() = default;

    /**
     * Builds and validates a system.
     * @throws std::invalid_argument on inconsistent dimensions.
     */
    StateSpace(linalg::Matrix a_in, linalg::Matrix b_in,
               linalg::Matrix c_in, linalg::Matrix d_in, double ts_in = 0.0);

    /** @return a static-gain system y = G u (no states). */
    static StateSpace gain(const linalg::Matrix& g, double ts = 0.0);

    /** Shape accessors: state, input, and output dimensions. */
    std::size_t numStates() const { return a.rows(); }
    std::size_t numInputs() const { return b.cols(); }
    std::size_t numOutputs() const { return c.rows(); }

    /** Sampled-time (ts > 0) vs. continuous-time predicates. */
    bool isDiscrete() const { return ts > 0.0; }
    // yukta-lint: allow(float-eq) ts==0 is the continuous-time sentinel
    bool isContinuous() const { return ts == 0.0; }

    /** @return the poles (eigenvalues of A). */
    std::vector<linalg::Complex> poles() const;

    /**
     * @return true when the system is asymptotically stable: spectral
     * radius < 1 (discrete) or spectral abscissa < 0 (continuous),
     * with margin @p margin.
     */
    bool isStable(double margin = 1e-9) const;

    /**
     * Frequency response at complex frequency @p s:
     * G(s) = C (sI - A)^{-1} B + D. For discrete systems pass
     * s = e^{j w Ts}.
     */
    linalg::CMatrix evalAt(linalg::Complex s) const;

    /**
     * Frequency response at angular frequency @p w (rad/s); picks
     * s = jw or z = e^{j w Ts} automatically.
     */
    linalg::CMatrix freqResponse(double w) const;

    /**
     * Batched frequency response over a whole grid (Laub's method):
     * one O(n^3) orthogonal Hessenberg reduction of A, then an
     * O(n^2) shifted-Hessenberg solve per grid point with reused
     * workspaces. Agrees with pointwise freqResponse() to roundoff;
     * the pointwise path stays the oracle in tests.
     *
     * @param freqs angular frequencies (rad/s), any order.
     * @return G(jw) (or G(e^{j w Ts})) for each entry of @p freqs.
     */
    std::vector<linalg::CMatrix>
    freqResponseBatch(const std::vector<double>& freqs) const;

    /** @return steady-state gain G(0) (continuous) or G(1) (discrete). */
    linalg::Matrix dcGain() const;

    /** @return the system with inputs/outputs scaled: Do * G * Di. */
    StateSpace scaled(const linalg::Matrix& out_scale,
                      const linalg::Matrix& in_scale) const;
};

/**
 * @return @p points log-spaced frequencies spanning [@p lo, @p hi],
 * with both endpoints pinned exactly (no log10/pow round-trip drift,
 * so discrete sweeps can land on the Nyquist frequency bit-exactly).
 * @throws std::invalid_argument unless 0 < lo <= hi and points >= 2
 *   (or points == 1 with lo == hi).
 */
std::vector<double> logSpacedFrequencies(double lo, double hi,
                                         std::size_t points);

/** One step of a discrete system: returns y and updates x in place. */
linalg::Vector stepOnce(const StateSpace& sys, linalg::Vector& x,
                        const linalg::Vector& u);

/**
 * Simulates a discrete system over an input sequence.
 *
 * @param sys discrete-time system.
 * @param inputs input vector per step.
 * @param x0 initial state (zero when empty).
 * @return output vector per step.
 */
std::vector<linalg::Vector> simulate(const StateSpace& sys,
                                     const std::vector<linalg::Vector>& inputs,
                                     linalg::Vector x0 = {});

/**
 * Discrete step response of duration @p steps for input channel
 * @p input_idx (unit step).
 */
std::vector<linalg::Vector> stepResponse(const StateSpace& sys,
                                         std::size_t input_idx,
                                         std::size_t steps);

}  // namespace yukta::control

#endif  // YUKTA_CONTROL_STATE_SPACE_H_
