#ifndef YUKTA_CONTROLLERS_SSV_RUNTIME_H_
#define YUKTA_CONTROLLERS_SSV_RUNTIME_H_

/**
 * @file
 * The runtime SSV controller state machine (Sec. VI-D):
 *
 *   x(T+1) = A x(T) + B dy(T)
 *   u(T)   = C x(T) + D dy(T)
 *
 * with dy = [targets - outputs; external signals]. On top of the
 * linear update the runtime applies the designer-declared input
 * saturation and quantization, and monitors whether the uncertainty
 * guardband appears exhausted (sustained deviations beyond the
 * guaranteed bounds).
 */

#include <cstddef>
#include <vector>

#include "linalg/vector.h"
#include "obs/stateio.h"
#include "robust/ssv_design.h"

namespace yukta::controllers {

/**
 * Optional per-invocation introspection record (filled on request so
 * the common path pays nothing): the exact dy fed to the state
 * machine, the updated state, the raw command before the input grids,
 * and per-input saturation/quantization flags. Consumed by the
 * observability layer (obs/trace.h) for per-tick events.
 */
struct SsvInvokeInfo
{
    linalg::Vector dy;     ///< Clamped/centered controller input.
    linalg::Vector x;      ///< State after x(T+1) = A x + B dy.
    linalg::Vector u_raw;  ///< Physical command before the grids.
    std::vector<int> saturated;  ///< 1 = raw command left [min, max].
    std::vector<int> quantized;  ///< 1 = grid snapping moved it.
};

/** Per-input saturation/quantization description. */
struct InputGrid
{
    double min = 0.0;
    double max = 1.0;
    double step = 0.0;  ///< 0 = continuous.

    /** @return @p v clamped to [min, max] and snapped to the grid. */
    double quantize(double v) const;
};

/** Runtime wrapper around a synthesized SSV controller. */
class SsvRuntime
{
  public:
    /**
     * @param ctrl synthesized controller (k maps dy -> u, centered).
     * @param grids physical input grids (size = k outputs).
     * @param u_mean operating-point offset added to the controller's
     *   centered output.
     * @param e_mean operating-point offset subtracted from the
     *   external-signal part of dy.
     */
    SsvRuntime(robust::SsvController ctrl, std::vector<InputGrid> grids,
               linalg::Vector u_mean, linalg::Vector e_mean);

    /** Shape accessors: outputs, external signals, inputs, order. */
    std::size_t numOutputsTracked() const { return num_outputs_; }
    std::size_t numExternal() const { return e_mean_.size(); }
    std::size_t numInputs() const { return grids_.size(); }
    std::size_t order() const { return ctrl_.k.numStates(); }

    /**
     * One invocation.
     *
     * Deviations are clamped to a small multiple of the design bounds
     * before entering the state machine: the SSV design only promises
     * behavior for in-bound deviations, and unbounded error drive
     * would wind the controller state up against the actuator
     * saturation.
     *
     * @param deviations targets - outputs (physical units), size O.
     * @param external external signals (physical units), size E.
     * @param info when non-null, receives the per-invocation
     *   introspection record (tracing only; no behavioral effect).
     * @return quantized physical inputs, size I.
     */
    linalg::Vector invoke(const linalg::Vector& deviations,
                          const linalg::Vector& external,
                          SsvInvokeInfo* info = nullptr);

    /** Resets the controller state and the guardband monitor. */
    void reset();

    /**
     * Arms bumpless transfer: at the next invoke() the state x is
     * solved (minimum-norm, regularized) from
     *
     *   C x + D dy = u_prev - u_mean
     *
     * so the command the incoming controller issues at the hand-over
     * tick equals the outgoing controller's last command @p u_prev
     * (physical units) before quantization. The arm survives reset():
     * a supervised swap parks the ladder in kHold and reset_primaries
     * fires when it re-earns kNominal, which must not lose the
     * hand-over state.
     */
    void armBumpless(linalg::Vector u_prev);

    /** @return true while an armed bumpless transfer is pending. */
    bool bumplessArmed() const { return bumpless_armed_; }

    /**
     * @return true when deviations have exceeded the guaranteed
     * bounds for several consecutive invocations: the runtime signal
     * that the uncertainty guardband was too small (Sec. II-B).
     */
    bool guardbandExhausted() const { return exhausted_; }

    /** The certificate of the wrapped controller. */
    const robust::SsvController& certificate() const { return ctrl_; }

    /** Writes or restores the mutable runtime state (obs/stateio.h). */
    template <class Io>
    void state(Io& io)
    {
        io.f64vec("ssv.x", x_.raw());
        io.i64("ssv.over_bound", over_bound_count_);
        io.boolean("ssv.exhausted", exhausted_);
        io.boolean("ssv.bumpless", bumpless_armed_);
        io.f64vec("ssv.bumpless_u", bumpless_u_.raw());
    }

  private:
    robust::SsvController ctrl_;
    std::vector<InputGrid> grids_;
    linalg::Vector u_mean_;
    linalg::Vector e_mean_;
    linalg::Vector x_;
    std::size_t num_outputs_ = 0;
    int over_bound_count_ = 0;
    bool exhausted_ = false;
    bool bumpless_armed_ = false;
    linalg::Vector bumpless_u_;  ///< Physical u to match at hand-over.

    static constexpr int kExhaustionWindow = 8;  ///< Invocations.

    /** Deviation clamp as a multiple of the design bounds. */
    static constexpr double kDeviationClamp = 3.0;
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_SSV_RUNTIME_H_
