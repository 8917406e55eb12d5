#ifndef YUKTA_TESTS_GOLDEN_SCENARIO_H_
#define YUKTA_TESTS_GOLDEN_SCENARIO_H_

/**
 * @file
 * The canonical golden-trace scenarios, shared verbatim by the
 * regression test (golden_test.cpp) and the re-blessing tool
 * (regen_golden.cpp) so both always run the exact same experiment.
 *
 * Two schemes are pinned: the SSV multilayer stack (the paper's
 * hardware layer) and the SISO PID baseline, both driving the
 * "swaptions" workload from the same seed for a short fixed budget.
 * Everything here must stay deterministic: any change to controller
 * math, plant models, or event emission shows up as a byte diff
 * against the committed traces in this directory and needs a
 * deliberate re-bless via tools/regen_golden.sh.
 */

#include <memory>
#include <stdexcept>
#include <string>

#include "controllers/heuristics.h"
#include "controllers/multilayer.h"
#include "controllers/pid.h"
#include "core/yukta.h"
#include "obs/trace.h"
#include "runner/sweep.h"

namespace yukta::golden {

/** Simulated-time budget: 60 ticks at the 500 ms control period. */
inline constexpr double kGoldenSeconds = 30.0;

/** Board seed shared by every golden scenario. */
inline constexpr std::uint32_t kGoldenSeed = 1;

/** Workload shared by every golden scenario. */
inline const char* const kGoldenWorkload = "swaptions";

/** The pinned scheme identifiers (also the trace file stems). */
inline const char* const kGoldenSchemes[] = {"ssv", "pid"};

/** @return the committed trace file name for @p scheme_id. */
inline std::string
goldenFileName(const std::string& scheme_id)
{
    return "golden-" + scheme_id + ".trace.jsonl";
}

/**
 * Builds the reduced artifact bundle the golden runs execute
 * against. Deliberately cheap (single D-K iteration, coarse mu grid)
 * so the suite stays fast; what matters is that it is bit-stable.
 */
inline core::Artifacts
goldenArtifacts()
{
    core::ArtifactOptions opt;
    opt.training.apps = {"swaptions", "milc"};
    opt.training.seconds_per_app = 60.0;
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    return core::buildArtifacts(platform::BoardConfig::odroidXu3(), opt);
}

/**
 * Instantiates the system for one golden scheme id: "ssv" is the
 * two-layer HW-SSV + OS-heuristic stack, "pid" the SISO PID baseline
 * with the same OS layer.
 * @throws std::invalid_argument on an unknown id.
 */
inline controllers::MultilayerSystem
makeGoldenSystem(const std::string& scheme_id, const core::Artifacts& art)
{
    if (scheme_id == "ssv") {
        return core::makeSystem(core::Scheme::kYuktaHwSsvOsHeuristic, art,
                                runner::makeWorkload(kGoldenWorkload),
                                kGoldenSeed);
    }
    if (scheme_id == "pid") {
        platform::Board board(art.cfg, runner::makeWorkload(kGoldenWorkload),
                              kGoldenSeed);
        return controllers::MultilayerSystem(
            std::move(board),
            std::make_unique<controllers::SisoPidHwController>(
                art.cfg, controllers::makeHwOptimizer(art.cfg)),
            std::make_unique<controllers::CoordinatedOsHeuristic>(art.cfg));
    }
    throw std::invalid_argument("unknown golden scheme '" + scheme_id + "'");
}

/**
 * Runs one golden scenario with event tracing into @p sink (which is
 * cleared first and whose run id should be "golden-<scheme_id>").
 */
inline void
captureGoldenTrace(const std::string& scheme_id, const core::Artifacts& art,
                   obs::TraceSink* sink)
{
    sink->clear();
    controllers::MultilayerSystem system = makeGoldenSystem(scheme_id, art);
    system.attachTraceSink(sink);
    (void)system.run(kGoldenSeconds);
    system.attachTraceSink(nullptr);
}

}  // namespace yukta::golden

#endif  // YUKTA_TESTS_GOLDEN_SCENARIO_H_
