#ifndef YUKTA_ROBUST_SSV_DESIGN_H_
#define YUKTA_ROBUST_SSV_DESIGN_H_

/**
 * @file
 * Designer-facing SSV controller synthesis: the C++ equivalent of the
 * paper's MATLAB workflow (Sec. II-C / IV). The designer provides
 *
 *  - a discrete black-box model mapping [inputs u; external signals e]
 *    to outputs y (from system identification),
 *  - per-input saturation ranges, quantization steps, and weights W,
 *  - per-output deviation bounds B (absolute) and observed ranges,
 *  - an uncertainty guardband Delta (fraction, e.g. 0.4 for +-40%),
 *
 * and receives a discrete SSV controller
 *
 *    x(T+1) = A x(T) + B dy(T),   u(T) = C x(T) + D dy(T)
 *
 * with dy = [targets - outputs; external signals], together with the
 * SSV certificate: mu peak, min(s) = 1/mu, and the worst-case
 * (guaranteed) output deviation bounds mu * B.
 */

#include <optional>
#include <vector>

#include "control/state_space.h"
#include "robust/dk.h"
#include "robust/mu.h"
#include "robust/uncertainty.h"

namespace yukta::robust {

/** Complete synthesis specification for one layer's controller. */
struct SsvSpec
{
    /** Discrete model [u; e] -> y (strictly proper), ts > 0. */
    control::StateSpace model;

    std::size_t num_inputs = 0;   ///< I: actuated inputs (first cols).
    std::size_t num_external = 0; ///< E: external signals (last cols).

    std::vector<double> in_min;     ///< Input saturation floor, size I.
    std::vector<double> in_max;     ///< Input saturation ceiling, size I.
    std::vector<double> in_step;    ///< Input quantization step, size I.
    std::vector<double> in_weight;  ///< Input weights W, size I.

    std::vector<double> out_bound;  ///< Allowed |deviation| per output.
    std::vector<double> out_range;  ///< Observed output range (for
                                    ///< normalizing the uncertainty).

    double guardband = 0.4;    ///< Uncertainty guardband fraction.
    std::size_t max_order = 20;  ///< Runtime controller order cap.

    double perf_corner = 2.0;  ///< Performance weight corner (rad/s).
    double unc_corner = 4.0;   ///< Uncertainty channel corner (rad/s).

    /**
     * Extra DC gain on the performance weight. Asking for error <=
     * bound / boost at DC leaves margin, so the achieved deviation
     * stays inside the designer bound even at gamma slightly above 1.
     */
    double perf_dc_boost = 2.0;

    /**
     * Optional per-output boost override (same length as out_bound).
     * Yukta sets 1.0 for critical outputs whose bounds sit near the
     * actuator quantization (demanding sub-quantum tracking is
     * provably infeasible and only inflates gamma), and
     * perf_dc_boost elsewhere. Empty = perf_dc_boost everywhere.
     */
    std::vector<double> out_boost;

    DkOptions dk;  ///< D-K iteration options.
};

/** A synthesized SSV controller plus its robustness certificate. */
struct SsvController
{
    /** Discrete controller: dy = [r - y; e] -> u. */
    control::StateSpace k;

    double mu_peak = 0.0;  ///< SSV upper bound over frequency.
    double min_s = 0.0;    ///< Paper's min(s) = 1 / SSV.
    double gamma = 0.0;    ///< H-infinity level of the final K-step.

    /** The designer-declared deviation bounds B. */
    std::vector<double> design_bounds;

    /** Worst-case guaranteed deviation bounds: max(1, mu) * B. */
    std::vector<double> guaranteed_bounds;

    MuSweep sweep;             ///< Final mu sweep.
    BlockStructure structure;  ///< {model, quant, perf} blocks.
    int dk_iterations = 0;     ///< D-K rounds used.
};

/**
 * Builds the generalized plant for an SsvSpec.
 *
 * Ports: inputs [d (O); dq (I); r (O); e (E); u (I)],
 *        outputs [f (O); fq (I); z1 (O); z2 (I); y1 = r - y (O);
 *        y2 = e (E)].
 *
 * @param spec the layer specification.
 * @param continuous when true the plant is continuous time (for the
 *   K-step); when false it is discrete (for mu validation).
 */
control::StateSpace buildGeneralizedPlant(const SsvSpec& spec,
                                          bool continuous);

/** @return the H-infinity partition matching buildGeneralizedPlant. */
PlantPartition ssvPartition(const SsvSpec& spec);

/** @return the {model, quant, perf} block structure for the spec. */
BlockStructure ssvBlockStructure(const SsvSpec& spec);

/**
 * Synthesizes the layer's SSV controller.
 *
 * @param workers threads for the mu sweeps: the certification sweep
 *   of the shipped loop, and D-K's own when it runs more than one
 *   round. The result is bit-identical for every value.
 * @return the controller and certificate, or std::nullopt when no
 *   stabilizing design exists within the gamma budget.
 * @throws std::invalid_argument on inconsistent specifications.
 */
std::optional<SsvController> ssvSynthesize(const SsvSpec& spec,
                                           std::size_t workers = 1);

}  // namespace yukta::robust

#endif  // YUKTA_ROBUST_SSV_DESIGN_H_
