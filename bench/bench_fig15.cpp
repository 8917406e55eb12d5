/**
 * @file
 * Figure 15: sensitivity to the output deviation bounds.
 *
 *  (a) Fixed-target experiment: hold the hardware targets at
 *      {5.5 BIPS, 2.5 W, 0.2 W, 70 C} (and the OS targets at
 *      {4.5, 1.0, dSC}) and show the performance trace for bounds of
 *      +-20%, +-30%, +-50% (i.e. +-1, +-1.5, +-2.5 BIPS).
 *  (b) E x D of Yukta: HW SSV+OS SSV for the three bound settings,
 *      normalized to Coordinated heuristic.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "controllers/heuristics.h"

using namespace yukta;
using linalg::Vector;

namespace {

core::Artifacts
artifactsForBounds(double perf_bound, double os_bound)
{
    core::ArtifactOptions options;
    options.hw_perf_bound = perf_bound;
    options.os_bound = os_bound;
    return core::buildArtifacts(platform::BoardConfig::odroidXu3(),
                                options);
}

}  // namespace

int
main()
{
    auto cfg = platform::BoardConfig::odroidXu3();
    const double bounds[] = {0.2, 0.3, 0.5};

    // ---- (a) fixed-target performance traces. ----
    std::printf("Fig. 15(a): performance trace, fixed targets "
                "(4.5 BIPS, 2.5 W, 0.2 W, 70 C -- the paper uses 5.5 "
                "BIPS, which this board cannot sustain at 2.5 W), "
                "blackscholes.\n");
    for (double b : bounds) {
        auto artifacts = artifactsForBounds(b, b);
        auto hw = std::make_unique<controllers::SsvHwController>(
            core::makeSsvRuntime(artifacts.hw_ssv),
            controllers::makeHwOptimizer(cfg));
        hw->holdTargets(Vector{4.5, 2.5, 0.2, 70.0});
        auto os = std::make_unique<controllers::SsvOsController>(
            core::makeSsvRuntime(artifacts.os_ssv),
            controllers::makeOsOptimizer());
        os->holdTargets(Vector{4.5, 1.0, 1.0});
        controllers::MultilayerSystem system(
            platform::Board(cfg,
                            platform::Workload(
                                platform::AppCatalog::get("blackscholes")),
                            1),
            std::move(hw), std::move(os));
        system.enableTrace(4.0);
        auto m = system.run(160.0);

        std::printf("\n== bounds +-%.0f%% (+-%.1f BIPS) ==\nt(s)\tBIPS\n",
                    100.0 * b, 4.5 * b);
        double err = 0.0;
        std::size_t n = 0;
        for (const auto& s : m.trace) {
            std::printf("%.0f\t%.3f\n", s.time, s.bips);
            if (s.time > 40.0) {  // skip the startup transient
                err += std::abs(s.bips - 4.5);
                ++n;
            }
        }
        std::printf("# mean |deviation| after settling: %.2f BIPS\n",
                    n ? err / n : 0.0);
        std::fflush(stdout);
    }

    // ---- (b) E x D for the three bounds. ----
    std::printf("\nFig. 15(b): normalized E x D (average over the "
                "evaluation apps).\n");
    auto apps = platform::AppCatalog::evaluationApps();
    std::vector<double> base_exd;
    {
        auto artifacts = artifactsForBounds(0.2, 0.2);
        for (const auto& app : apps) {
            auto m = bench::runScheme(
                artifacts, core::Scheme::kCoordinatedHeuristic,
                platform::Workload(platform::AppCatalog::get(app)));
            base_exd.push_back(m.exd);
        }
    }
    for (double b : bounds) {
        auto artifacts = artifactsForBounds(b, b);
        std::vector<double> rel;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            auto m = bench::runScheme(
                artifacts, core::Scheme::kYuktaFull,
                platform::Workload(platform::AppCatalog::get(apps[i])));
            rel.push_back(m.exd / base_exd[i]);
        }
        std::printf("bounds +-%.0f%%: ExD = %.2f (vs Coordinated 1.00)\n",
                    100.0 * b, bench::average(rel));
        std::fflush(stdout);
    }
    std::printf("\nPaper: ExD is 0.50 / 0.59 / 0.70 of the baseline for "
                "+-20%% / +-30%% / +-50%% bounds (wider bounds track "
                "less tightly).\n");
    return 0;
}
