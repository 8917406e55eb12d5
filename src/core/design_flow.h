#ifndef YUKTA_CORE_DESIGN_FLOW_H_
#define YUKTA_CORE_DESIGN_FLOW_H_

/**
 * @file
 * The Yukta design flow (Fig. 3), end to end:
 *
 *   1. each layer team writes a LayerSpec (inputs + grids, outputs +
 *      bounds, external signals, guardband);
 *   2. teams exchange Interface records;
 *   3. each team identifies a black-box model from the training
 *      campaign (System Identification, Sec. IV-C);
 *   4. each team synthesizes its SSV controller (mu-synthesis);
 *   5. the layers are combined and validated together.
 *
 * The same flow also builds the LQG baselines of Sec. VI-B.
 */

#include <optional>
#include <string>

#include "controllers/layer_controllers.h"
#include "core/spec.h"
#include "core/training.h"
#include "robust/ssv_design.h"
#include "sysid/arx.h"

namespace yukta::core {

/** Everything produced when designing one SSV layer. */
struct LayerDesign
{
    LayerSpec spec;                 ///< What the team declared.
    sysid::ArxModel model;          ///< Identified black-box model.
    std::vector<double> fit;        ///< Prediction fit % per output.
    robust::SsvController controller;  ///< Synthesized + certified.
};

/** Knobs for layer design (defaults = the paper's prototype). */
struct DesignOptions
{
    /** Order-4 model with the paper's direct u(T) term (Sec. IV-C). */
    sysid::ArxOptions arx{4, 4, 1e-4, true, true};
    robust::DkOptions dk;               ///< D-K iteration options.
    /** Non-empty switches the design cache on. Entries are named by
        their synthesis inputs (core/cache.h), never by this value. */
    std::string cache_key;
};

/**
 * Designs one layer's SSV controller from its spec and records.
 *
 * @param spec the layer's declaration.
 * @param data identification records; u columns ordered
 *   [actuated inputs..., external signals...].
 * @param num_external trailing external-signal columns in data.u.
 * @return the design, or std::nullopt when synthesis fails. A fresh
 *   synthesis runs its mu sweeps on every hardware thread
 *   (resynthesizeSsvLayer's workers); the design does not depend on it.
 */
std::optional<LayerDesign> designSsvLayer(const LayerSpec& spec,
                                          const sysid::IoData& data,
                                          std::size_t num_external,
                                          const DesignOptions& options = {});

/** Outcome of one SSV synthesis (step 4 of Fig. 3). */
struct Resynthesis
{
    std::string controller_text;  ///< Cache-text form (exact).
    bool cache_hit = false;       ///< Served from the design cache.
};

/**
 * Runs mu-synthesis for @p spec against an identified @p model: the
 * one SSV synthesis path, shared by designSsvLayer (offline) and the
 * online adapter. A non-empty @p cache_key switches the design cache
 * on: the entry ssvCacheKey(spec, model, num_external, dk) is served
 * when present and written after a fresh synthesis; the value of
 * @p cache_key is not part of the name. @p workers threads compute
 * the mu sweeps (robust::ssvSynthesize); the text is the same for
 * every value, so it is not part of the name either.
 * @return the controller text, or std::nullopt when synthesis fails.
 * @throws std::invalid_argument when the spec is inconsistent.
 */
std::optional<Resynthesis>
resynthesizeSsvLayer(const LayerSpec& spec, const sysid::ArxModel& model,
                     std::size_t num_external,
                     const robust::DkOptions& dk,
                     const std::string& cache_key,
                     std::size_t workers = 1);

/**
 * Wraps an SSV controller into its runtime form (state machine +
 * grids). @p model supplies the operating point: its input means,
 * split into the @p inputs actuated channels and the external rest.
 */
controllers::SsvRuntime makeSsvRuntime(const robust::SsvController& controller,
                                       const std::vector<SignalSpec>& inputs,
                                       const sysid::ArxModel& model);

/** makeSsvRuntime for a LayerDesign. */
controllers::SsvRuntime makeSsvRuntime(const LayerDesign& design);

/** An LQG design for a layer (Sec. VI-B baseline). */
struct LqgDesign
{
    sysid::ArxModel model;
    control::StateSpace controller;
    std::vector<controllers::InputGrid> grids;
    linalg::Vector u_mean;
};

/**
 * Designs an LQG controller over the *actuated inputs only* (LQG has
 * no external-signal channel): the external columns of @p data are
 * dropped before identification.
 *
 * @param input_specs actuated input grids/weights.
 * @param output_bounds per-output deviation bounds (sets the output
 *   weighting comparably to the SSV design).
 */
std::optional<LqgDesign>
designLqgLayer(const std::vector<SignalSpec>& input_specs,
               const std::vector<double>& output_bounds,
               const sysid::IoData& data, std::size_t num_external,
               const DesignOptions& options = {});

/** Wraps an LqgDesign into its runtime form. */
controllers::LqgRuntime makeLqgRuntime(const LqgDesign& design);

}  // namespace yukta::core

#endif  // YUKTA_CORE_DESIGN_FLOW_H_
