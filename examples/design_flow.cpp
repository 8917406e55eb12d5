/**
 * @file
 * The Fig. 3 design process, step by step, as two independent teams
 * would run it:
 *
 *   1. each team declares its layer spec (signals, grids, bounds,
 *      weights, external signals, guardband);
 *   2. the teams exchange Interface records;
 *   3. each team runs its characterization campaign and identifies a
 *      black-box model (System Identification);
 *   4. each team synthesizes its SSV controller, whose layer report
 *      states the bounds D-K guarantees;
 *   5. the combined system is validated on the board.
 */

#include <cstdio>
#include <iostream>

#include "core/yukta.h"

using namespace yukta;

int
main()
{
    auto cfg = platform::BoardConfig::odroidXu3();

    // ---- Step 1: per-team declarations (Tables II and III). ----
    // Ranges come from each team's own characterization; reasonable
    // preliminary values are fine at this step.
    core::LayerSpec hw_spec =
        core::hardwareLayerSpec(cfg, {10.0, 4.0, 0.5, 25.0});
    core::LayerSpec os_spec = core::softwareLayerSpec({5.0, 2.0, 14.0});

    // ---- Step 2: interface exchange. ----
    auto hw_pub = core::publishInterface(hw_spec);
    auto os_pub = core::publishInterface(os_spec);
    std::printf("=== Interface exchange ===\n");
    core::printInterfaceExchange(std::cout, hw_pub);
    core::printInterfaceExchange(std::cout, os_pub);

    // ---- Step 3: characterization + identification. ----
    std::printf("\n=== Characterization campaign (training apps) ===\n");
    core::TrainingOptions topt;
    topt.seconds_per_app = 60.0;
    auto data = core::runTrainingCampaign(cfg, topt);
    std::printf("HW records: %zu samples; OS records: %zu samples\n",
                data.hw.u.size(), data.os.u.size());

    // Refresh the output ranges from the measured data (Sec. IV-A).
    hw_spec = core::hardwareLayerSpec(cfg, data.hw_ranges);
    os_spec = core::softwareLayerSpec(data.os_ranges);

    // ---- Step 4: per-layer synthesis. ----
    std::printf("\n=== Synthesis ===\n");
    core::DesignOptions dopt;
    dopt.dk.max_iterations = 2;
    auto hw_design = core::designSsvLayer(hw_spec, data.hw, 3, dopt);
    auto os_design = core::designSsvLayer(os_spec, data.os, 4, dopt);
    if (!hw_design || !os_design) {
        std::printf("synthesis failed; relax bounds/guardband and retry\n");
        return 1;
    }
    core::printLayerReport(std::cout, *hw_design);
    core::printLayerReport(std::cout, *os_design);

    // ---- Step 5: combine and validate on the board. ----
    std::printf("=== Combined validation run ===\n");
    controllers::MultilayerSystem system(
        platform::Board(cfg,
                        platform::Workload(
                            platform::AppCatalog::get("swaptions")),
                        11),
        std::make_unique<controllers::SsvHwController>(
            core::makeSsvRuntime(*hw_design),
            controllers::makeHwOptimizer(cfg)),
        std::make_unique<controllers::SsvOsController>(
            core::makeSsvRuntime(*os_design),
            controllers::makeOsOptimizer()));
    auto metrics = system.run(600.0);
    std::printf("completed=%d  time %.1f s  energy %.1f J  ExD %.0f  "
                "emergencies %.1f s\n",
                metrics.completed, metrics.exec_time, metrics.energy,
                metrics.exd, metrics.emergency_time);
    return 0;
}
