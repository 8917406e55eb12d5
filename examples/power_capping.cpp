/**
 * @file
 * Fixed-target tracking (the Fig. 15(a) use of a Yukta controller):
 * instead of letting the optimizer search for targets, hold the
 * hardware controller at explicit setpoints -- performance 5.5 BIPS,
 * P_big 2.5 W, P_little 0.2 W, T 70 C -- and watch the closed loop
 * keep the outputs near them.
 */

#include <cstdio>
#include <memory>

#include "controllers/heuristics.h"
#include "core/yukta.h"

using namespace yukta;
using linalg::Vector;

int
main()
{
    auto cfg = platform::BoardConfig::odroidXu3();
    auto artifacts = core::buildArtifacts(cfg);

    auto hw = std::make_unique<controllers::SsvHwController>(
        core::makeSsvRuntime(artifacts.hw_ssv),
        controllers::makeHwOptimizer(cfg));
    // The Sec. VI-E1 fixed targets.
    Vector targets{5.5, 2.5, 0.2, 70.0};
    hw->holdTargets(targets);

    auto os = std::make_unique<controllers::CoordinatedOsHeuristic>(cfg);
    platform::Board board(
        cfg, platform::Workload(platform::AppCatalog::get("blackscholes")),
        1);
    controllers::MultilayerSystem system(std::move(board), std::move(hw),
                                         std::move(os));
    system.enableTrace(5.0);
    auto metrics = system.run(200.0);

    std::printf("Targets: %.1f BIPS, %.1f W big, %.2f W little, %.0f C\n\n",
                targets[0], targets[1], targets[2], targets[3]);
    std::printf("  time    BIPS   P_big   temp   f_big  cores\n");
    for (const auto& s : metrics.trace) {
        std::printf("%6.1f  %6.2f  %6.2f  %5.1f  %5.1f   %zu+%zu\n", s.time,
                    s.bips, s.p_big, s.temp, s.f_big, s.big_cores,
                    s.little_cores);
    }
    return 0;
}
