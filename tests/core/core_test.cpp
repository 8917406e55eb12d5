// End-to-end tests of the Yukta core: specs, interface exchange,
// training campaign, design flow, the content-keyed design cache, and
// the scheme factory. A reduced design (short campaign, coarse D-K
// options) is built once and shared across tests.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/cache.h"
#include "core/report.h"
#include "core/schemes.h"
#include "core/toy_layer.h"
#include "core/yukta.h"
#include "support/scratch_dir.h"

#include <sstream>

namespace yukta::core {
namespace {

using platform::AppCatalog;
using platform::BoardConfig;
using platform::Workload;

testsupport::CacheDirEnvironment* const cache_env =
    testsupport::addCacheDirEnvironment("yukta_core_test");

/** @return the number of design-cache entries. */
std::size_t
cacheEntries()
{
    std::size_t n = 0;
    const std::filesystem::path& dir = cache_env->dir();
    // yukta-audit: allow(dir-iter) only counted
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        n += e.path().extension() == ".txt" ? 1 : 0;
    }
    return n;
}

/** The reduced recipe of fleet::fleetArtifacts(). */
ArtifactOptions
reducedRecipe()
{
    ArtifactOptions opt;
    opt.training.apps = {"swaptions", "milc"};
    opt.training.seconds_per_app = 60.0;
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    return opt;
}

/** Shares one reduced artifact bundle across all core tests. */
class CoreFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cfg_ = new BoardConfig(BoardConfig::odroidXu3());
        artifacts_ = new Artifacts(buildArtifacts(*cfg_, reducedRecipe()));
    }

    static void TearDownTestSuite()
    {
        delete artifacts_;
        delete cfg_;
        artifacts_ = nullptr;
        cfg_ = nullptr;
    }

    static BoardConfig* cfg_;
    static Artifacts* artifacts_;
};

BoardConfig* CoreFixture::cfg_ = nullptr;
Artifacts* CoreFixture::artifacts_ = nullptr;

TEST(Spec, TableIIHardwareLayer)
{
    BoardConfig cfg = BoardConfig::odroidXu3();
    LayerSpec spec = hardwareLayerSpec(cfg, {10.0, 4.0, 0.4, 20.0});
    ASSERT_EQ(spec.inputs.size(), 4u);
    EXPECT_EQ(spec.inputs[2].name, "frequency_big");
    EXPECT_DOUBLE_EQ(spec.inputs[2].min, 0.2);
    EXPECT_DOUBLE_EQ(spec.inputs[2].max, 2.0);
    EXPECT_DOUBLE_EQ(spec.inputs[2].step, 0.1);
    ASSERT_EQ(spec.outputs.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.outputs[0].bound_fraction, 0.2);  // perf
    EXPECT_DOUBLE_EQ(spec.outputs[1].bound_fraction, 0.1);  // power
    EXPECT_TRUE(spec.outputs[1].critical);
    EXPECT_EQ(spec.external_names.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.guardband, 0.4);
    EXPECT_THROW(hardwareLayerSpec(cfg, {1.0}), std::invalid_argument);
}

TEST(Spec, TableIIISoftwareLayer)
{
    LayerSpec spec = softwareLayerSpec({5.0, 2.0, 12.0});
    ASSERT_EQ(spec.inputs.size(), 3u);
    EXPECT_EQ(spec.inputs[0].name, "#threads_big");
    ASSERT_EQ(spec.outputs.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.guardband, 0.5);
    EXPECT_EQ(spec.external_names.size(), 4u);
}

TEST(Spec, InterfaceExchangePublishesSignals)
{
    LayerSpec spec = softwareLayerSpec({5.0, 2.0, 12.0});
    InterfaceExchange ex = publishInterface(spec);
    EXPECT_EQ(ex.from_layer, "software");
    EXPECT_EQ(ex.published_inputs.size(), 3u);
    EXPECT_EQ(ex.published_outputs.size(), 3u);
    std::ostringstream os;
    printInterfaceExchange(os, ex);
    EXPECT_NE(os.str().find("#threads_big"), std::string::npos);
}

TEST(Training, CampaignShapesAndRanges)
{
    BoardConfig cfg = BoardConfig::odroidXu3();
    TrainingOptions opt;
    opt.apps = {"swaptions"};
    opt.seconds_per_app = 30.0;
    TrainingData data = runTrainingCampaign(cfg, opt);
    ASSERT_FALSE(data.hw.u.empty());
    EXPECT_EQ(data.hw.u[0].size(), 7u);
    EXPECT_EQ(data.hw.y[0].size(), 4u);
    EXPECT_EQ(data.os.u[0].size(), 7u);
    EXPECT_EQ(data.os.y[0].size(), 3u);
    EXPECT_EQ(data.joint.u[0].size(), 7u);
    EXPECT_EQ(data.joint.y[0].size(), 7u);
    ASSERT_EQ(data.hw_ranges.size(), 4u);
    for (double r : data.hw_ranges) {
        EXPECT_GT(r, 0.0);
    }
}

TEST(Cache, StateSpaceRoundTrip)
{
    control::StateSpace sys(linalg::Matrix{{0.5, 0.1}, {0.0, 0.3}},
                            linalg::Matrix{{1.0}, {2.0}},
                            linalg::Matrix{{1.0, 0.0}},
                            linalg::Matrix{{0.25}}, 0.5);
    std::string path = cachePath("test_ss_roundtrip");
    ASSERT_TRUE(saveStateSpace(path, sys));
    auto loaded = loadStateSpace(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->a.isApprox(sys.a, 1e-15));
    EXPECT_TRUE(loaded->d.isApprox(sys.d, 1e-15));
    EXPECT_DOUBLE_EQ(loaded->ts, 0.5);
    std::remove(path.c_str());
    EXPECT_FALSE(loadStateSpace(path).has_value());
}

TEST(Cache, SsvControllerRoundTrip)
{
    robust::SsvController ctrl;
    ctrl.k = control::StateSpace(linalg::Matrix{{0.5}},
                                 linalg::Matrix{{1.0, 0.5}},
                                 linalg::Matrix{{1.0}},
                                 linalg::Matrix{{0.0, 0.0}}, 0.5);
    ctrl.mu_peak = 1.25;
    ctrl.min_s = 0.8;
    ctrl.gamma = 2.0;
    ctrl.dk_iterations = 3;
    ctrl.design_bounds = {0.5};
    ctrl.guaranteed_bounds = {0.625};
    std::string path = cachePath("test_ssv_roundtrip");
    ASSERT_TRUE(saveSsvController(path, ctrl));
    auto loaded = loadSsvController(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->mu_peak, 1.25);
    EXPECT_EQ(loaded->dk_iterations, 3);
    ASSERT_EQ(loaded->design_bounds.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded->design_bounds[0], 0.5);
    EXPECT_TRUE(loaded->k.a.isApprox(ctrl.k.a, 1e-15));
    std::remove(path.c_str());
}

sysid::ArxModel
identifyToy(const sysid::IoData& data)
{
    return sysid::identifyArx(data, controllers::kControlPeriod,
                              test::toyArx());
}

TEST(DesignCache, ContentKeysHitOnlyForIdenticalInputs)
{
    const LayerSpec spec = test::toySpec();
    const sysid::IoData data = test::toyRecords();
    const robust::DkOptions dk = reducedRecipe().dk;
    const std::size_t before = cacheEntries();

    auto first = resynthesizeSsvLayer(spec, identifyToy(data), 1, dk, "on");
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(first->cache_hit);
    EXPECT_EQ(cacheEntries(), before + 1);

    // Identical inputs hit and serve the same bytes. The switch's
    // value and the signal names are not part of the entry name.
    LayerSpec renamed = spec;
    renamed.inputs[0].name = "v1";
    auto hit =
        resynthesizeSsvLayer(renamed, identifyToy(data), 1, dk, "other");
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->cache_hit);
    EXPECT_EQ(hit->controller_text, first->controller_text);
    EXPECT_EQ(cacheEntries(), before + 1);

    // Each changed input misses: one perturbed training sample (so a
    // different identified model), one spec bound, one D-K option.
    sysid::IoData perturbed = data;
    perturbed.y[200][0] += 1e-3;
    LayerSpec bound = spec;
    bound.outputs[0].bound_fraction = 0.25;
    robust::DkOptions finer = dk;
    finer.mu_grid += 1;
    const std::optional<Resynthesis> misses[] = {
        resynthesizeSsvLayer(spec, identifyToy(perturbed), 1, dk, "on"),
        resynthesizeSsvLayer(bound, identifyToy(data), 1, dk, "on"),
        resynthesizeSsvLayer(spec, identifyToy(data), 1, finer, "on")};
    for (const auto& miss : misses) {
        ASSERT_TRUE(miss.has_value());
        EXPECT_FALSE(miss->cache_hit);
    }
    EXPECT_EQ(cacheEntries(), before + 4);
}

TEST(DesignCache, HwGuardbandSharesEveryEntryItDoesNotRead)
{
    const BoardConfig cfg = BoardConfig::odroidXu3();
    ArtifactOptions opt = reducedRecipe();
    const Artifacts base = buildArtifacts(cfg, opt);
    const std::size_t after_base = cacheEntries();

    // Only the HW SSV synthesis reads the HW guardband: the OS SSV
    // and all three LQG designs are served from the first build.
    opt.hw_guardband = 1.0;
    const Artifacts wide = buildArtifacts(cfg, opt);
    EXPECT_EQ(cacheEntries(), after_base + 1);
    EXPECT_EQ(ssvControllerToText(wide.os_ssv.controller),
              ssvControllerToText(base.os_ssv.controller));
    EXPECT_NE(ssvControllerToText(wide.hw_ssv.controller),
              ssvControllerToText(base.hw_ssv.controller));
}

TEST_F(CoreFixture, ArtifactsCarryCertifiedControllers)
{
    EXPECT_EQ(artifacts_->hw_ssv.controller.k.numOutputs(), 4u);
    EXPECT_EQ(artifacts_->hw_ssv.controller.k.numInputs(), 7u);
    EXPECT_EQ(artifacts_->os_ssv.controller.k.numOutputs(), 3u);
    EXPECT_EQ(artifacts_->os_ssv.controller.k.numInputs(), 7u);
    EXPECT_GT(artifacts_->hw_ssv.controller.mu_peak, 0.0);
    EXPECT_LE(artifacts_->hw_ssv.controller.k.numStates(), 20u);
    // LQG baselines have no external channel.
    EXPECT_EQ(artifacts_->hw_lqg.controller.numInputs(), 4u);
    EXPECT_EQ(artifacts_->os_lqg.controller.numInputs(), 3u);
    EXPECT_EQ(artifacts_->mono_lqg.controller.numInputs(), 7u);
    EXPECT_EQ(artifacts_->mono_lqg.controller.numOutputs(), 7u);
}

TEST_F(CoreFixture, LayerReportMentionsKeyFields)
{
    std::ostringstream os;
    printLayerReport(os, artifacts_->hw_ssv);
    std::string text = os.str();
    EXPECT_NE(text.find("hardware"), std::string::npos);
    EXPECT_NE(text.find("guardband"), std::string::npos);
    EXPECT_NE(text.find("mu_peak"), std::string::npos);
    std::ostringstream os2;
    printSchemeTable(os2);
    EXPECT_NE(os2.str().find("Coordinated heuristic"), std::string::npos);
}

TEST_F(CoreFixture, EverySchemeRuns)
{
    for (Scheme scheme : allSchemes()) {
        auto sys = makeSystem(scheme, *artifacts_,
                              Workload(AppCatalog::getWithThreads(
                                  "blackscholes", 4)),
                              7);
        auto metrics = sys.run(20.0);
        EXPECT_GT(metrics.energy, 0.0) << schemeName(scheme);
        EXPECT_EQ(metrics.periods, 40) << schemeName(scheme);
    }
}

TEST_F(CoreFixture, SchemeNamesMatchPaper)
{
    EXPECT_EQ(schemeName(Scheme::kYuktaFull), "Yukta: HW SSV+OS SSV");
    EXPECT_EQ(schemeName(Scheme::kMonolithicLqg), "Monolithic LQG");
    EXPECT_EQ(allSchemes().size(), 6u);
}

TEST_F(CoreFixture, DesignFitReported)
{
    ASSERT_EQ(artifacts_->hw_ssv.fit.size(), 4u);
    for (double f : artifacts_->hw_ssv.fit) {
        EXPECT_GT(f, 0.0);   // better than predicting the mean
        EXPECT_LE(f, 100.0);
    }
}

}  // namespace
}  // namespace yukta::core
