/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  1. Coordination value: Yukta HW SSV+OS SSV with the external-signal
 *     channel zeroed at runtime (controllers fly blind about the other
 *     layer) versus the full collaborative design.
 *  2. D-K iteration depth: certified mu after 1 vs 3 rounds.
 *  3. Quantization-aware runtime: the SSV runtime's grid snapping vs
 *     emitting raw continuous commands (the actuators clamp silently).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "controllers/heuristics.h"

using namespace yukta;
using linalg::Vector;

namespace {

/** SSV HW controller whose external signals are muted. */
class BlindSsvHwController : public controllers::HwController
{
  public:
    BlindSsvHwController(controllers::SsvRuntime runtime,
                         controllers::ExdOptimizer optimizer,
                         Vector e_mean)
        : inner_(std::move(runtime), std::move(optimizer)),
          e_mean_(std::move(e_mean))
    {
    }

    platform::HardwareInputs invoke(const controllers::HwSignals& s) override
    {
        controllers::HwSignals muted = s;
        muted.threads_big = e_mean_[0];
        muted.tpc_big = e_mean_[1];
        muted.tpc_little = e_mean_[2];
        return inner_.invoke(muted);
    }

    void reset() override { inner_.reset(); }

  private:
    controllers::SsvHwController inner_;
    Vector e_mean_;
};

}  // namespace

int
main()
{
    auto cfg = platform::BoardConfig::odroidXu3();
    auto artifacts = bench::defaultArtifacts();
    const std::vector<std::string> apps = {"blackscholes", "gamess",
                                           "streamcluster"};

    // All standard-scheme runs (ablations 1 and 3 reference them) go
    // through the sweep engine in one parallel batch; only the
    // custom blind-controller systems below run ad hoc.
    runner::SweepSpec sweep;
    sweep.schemes = {core::Scheme::kYuktaHwSsvOsHeuristic,
                     core::Scheme::kDecoupledLqg};
    sweep.workloads = apps;
    sweep.max_seconds = bench::kMaxSeconds;
    auto result = bench::runBenchSweep(artifacts, sweep);

    // ---- 1. Coordination (external signals) ablation. ----
    std::printf("=== Ablation 1: external-signal coordination ===\n");
    for (const std::string& app : apps) {
        const auto& full =
            *result.metricsFor(core::Scheme::kYuktaHwSsvOsHeuristic, app);

        const Vector& mean = artifacts.hw_ssv.model.uMean();
        Vector e_mean = mean.segment(4, 3);
        controllers::MultilayerSystem blind_sys(
            platform::Board(
                cfg, platform::Workload(platform::AppCatalog::get(app)),
                1),
            std::make_unique<BlindSsvHwController>(
                core::makeSsvRuntime(artifacts.hw_ssv),
                controllers::makeHwOptimizer(cfg), e_mean),
            std::make_unique<controllers::CoordinatedOsHeuristic>(cfg));
        auto blind = blind_sys.run(bench::kMaxSeconds);

        std::printf("%-14s coordinated ExD %9.0f | blind ExD %9.0f "
                    "(%.2fx)\n",
                    app.c_str(), full.exd, blind.exd,
                    full.exd > 0 ? blind.exd / full.exd : 0.0);
        std::fflush(stdout);
    }

    // ---- 2. D-K iteration depth. ----
    std::printf("\n=== Ablation 2: D-K iteration depth (HW layer) ===\n");
    for (int rounds : {1, 3}) {
        core::ArtifactOptions options;
        options.dk.max_iterations = rounds;
        auto art = core::buildArtifacts(cfg, options);
        std::printf("D-K rounds %d: mu_peak %.3f, gamma %.3f, used %d "
                    "iteration(s)\n",
                    rounds, art.hw_ssv.controller.mu_peak,
                    art.hw_ssv.controller.gamma,
                    art.hw_ssv.controller.dk_iterations);
        std::fflush(stdout);
    }

    // ---- 3. Quantization-aware runtime. ----
    std::printf("\n=== Ablation 3: quantization-aware actuation ===\n");
    std::printf("The SSV runtime snaps to the declared grids; the LQG "
                "runtime emits raw commands that the actuators clamp.\n");
    for (const std::string& app : apps) {
        const auto& ssv =
            *result.metricsFor(core::Scheme::kYuktaHwSsvOsHeuristic, app);
        const auto& lqg =
            *result.metricsFor(core::Scheme::kDecoupledLqg, app);
        std::printf("%-14s quantization-aware ExD %9.0f | oblivious "
                    "(LQG) ExD %9.0f\n",
                    app.c_str(), ssv.exd, lqg.exd);
        std::fflush(stdout);
    }
    return 0;
}
