/**
 * @file
 * The paper's headline flow: design the two-layer Yukta controller for
 * the simulated ODROID XU3 board and minimize Energy x Delay for a
 * PARSEC-style application, comparing against the coordinated
 * heuristic baseline.
 *
 * The first run performs the full design flow (training campaign,
 * system identification, mu-synthesis); later runs reuse the on-disk
 * controller cache (./yukta_cache).
 */

#include <cstdio>

#include "core/yukta.h"

using namespace yukta;

int
main()
{
    auto cfg = platform::BoardConfig::odroidXu3();

    std::printf("Running the Yukta design flow (cached after first run)...\n");
    auto artifacts = core::buildArtifacts(cfg);

    std::printf("\nHW layer: mu=%.2f gamma=%.2f order=%zu\n",
                artifacts.hw_ssv.controller.mu_peak,
                artifacts.hw_ssv.controller.gamma,
                artifacts.hw_ssv.controller.k.numStates());
    std::printf("OS layer: mu=%.2f gamma=%.2f order=%zu\n",
                artifacts.os_ssv.controller.mu_peak,
                artifacts.os_ssv.controller.gamma,
                artifacts.os_ssv.controller.k.numStates());

    const char* app = "blackscholes";
    std::printf("\nRunning %s under two schemes (limits: %.2f W big, "
                "%.2f W little, %.0f C)...\n",
                app, cfg.power_limit_big, cfg.power_limit_little,
                cfg.temp_limit);

    for (auto scheme : {core::Scheme::kCoordinatedHeuristic,
                        core::Scheme::kYuktaHwSsvOsHeuristic,
                        core::Scheme::kYuktaFull}) {
        auto system = core::makeSystem(
            scheme, artifacts,
            platform::Workload(platform::AppCatalog::get(app)), 1);
        auto metrics = system.run(900.0);
        std::printf("%-28s  time %6.1f s  energy %7.1f J  ExD %9.0f  "
                    "emergencies %5.1f s\n",
                    core::schemeName(scheme).c_str(), metrics.exec_time,
                    metrics.energy, metrics.exd, metrics.emergency_time);
    }
    return 0;
}
