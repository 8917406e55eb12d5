#ifndef YUKTA_CORE_SCHEMES_H_
#define YUKTA_CORE_SCHEMES_H_

/**
 * @file
 * Factory for the two-layer control schemes evaluated in the paper
 * (Table IV plus the Sec. VI-B LQG baselines). buildArtifacts() runs
 * the full design flow once (training campaign, identification,
 * mu-synthesis, LQG synthesis); makeSystem() then instantiates any
 * scheme on a fresh board for one experiment run.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "controllers/multilayer.h"
#include "core/design_flow.h"
#include "core/spec.h"
#include "core/training.h"
#include "platform/workload.h"

namespace yukta::core {

/** The evaluated controller arrangements. */
enum class Scheme
{
    kCoordinatedHeuristic,   ///< Table IV (a) -- the baseline.
    kDecoupledHeuristic,     ///< Table IV (b).
    kYuktaHwSsvOsHeuristic,  ///< Table IV (c).
    kYuktaFull,              ///< Table IV (d): HW SSV + OS SSV.
    kDecoupledLqg,           ///< Sec. VI-B: HW LQG + OS LQG.
    kMonolithicLqg,          ///< Sec. VI-B: single LQG for both layers.
};

/** @return the paper's name for the scheme. */
std::string schemeName(Scheme scheme);

/** All schemes in Fig. 9 order, then the LQG pair. */
std::vector<Scheme> allSchemes();

/** Everything the design flow produces (shared across runs). */
struct Artifacts
{
    platform::BoardConfig cfg;
    TrainingData training;
    LayerDesign hw_ssv;
    LayerDesign os_ssv;
    LqgDesign hw_lqg;
    LqgDesign os_lqg;
    LqgDesign mono_lqg;
};

/** Knobs for buildArtifacts (defaults = the paper's prototype). */
struct ArtifactOptions
{
    double hw_guardband = 0.4;       ///< Table II.
    double os_guardband = 0.5;       ///< Table III.
    double hw_perf_bound = 0.2;      ///< Table II performance bound.
    double os_bound = 0.2;           ///< Table III bounds.
    double hw_input_weight = 1.0;    ///< Table II weights.
    double os_input_weight = 2.0;    ///< Table III weights (the
                                     ///< synthesis normalizes by twice
                                     ///< the range for OS knobs).
    TrainingOptions training;        ///< Campaign options.
    robust::DkOptions dk;            ///< Synthesis options.
    /** Non-empty switches the design cache on ("" disables it). Entries
        are named by their synthesis inputs, never by this value. */
    std::string cache_tag = "on";
};

/**
 * Runs the full design flow and returns the artifact bundle.
 * @throws std::runtime_error when any synthesis fails.
 */
Artifacts buildArtifacts(const platform::BoardConfig& cfg,
                         const ArtifactOptions& options = {});

/**
 * Instantiates @p scheme on a fresh board running @p workload.
 * Controllers are built new for each call (no state leaks between
 * runs).
 */
controllers::MultilayerSystem makeSystem(Scheme scheme,
                                         const Artifacts& artifacts,
                                         platform::Workload workload,
                                         std::uint32_t seed = 1);

}  // namespace yukta::core

#endif  // YUKTA_CORE_SCHEMES_H_
