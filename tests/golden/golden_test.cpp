// Golden-trace regression suite: replays the pinned scenarios from
// scenario.h and byte-compares their event traces against the
// committed files under tests/golden/. Any divergence is reported as
// the first diverging tick/field; re-bless deliberate behavior
// changes with tools/regen_golden.sh.
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/cache.h"
#include "golden/scenario.h"
#include "obs/rollup.h"
#include "support/scratch_dir.h"
#include "support/trace_diff.h"

#ifndef YUKTA_GOLDEN_DIR
#error "YUKTA_GOLDEN_DIR must point at the committed golden traces"
#endif

namespace yukta::golden {
namespace {

testsupport::CacheDirEnvironment* const cache_env =
    testsupport::addCacheDirEnvironment("yukta_golden_test");

/** One artifact bundle shared by every golden test. */
class GoldenFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        artifacts_ = new core::Artifacts(goldenArtifacts());
    }

    static void TearDownTestSuite()
    {
        delete artifacts_;
        artifacts_ = nullptr;
    }

    static std::filesystem::path goldenPath(const std::string& scheme)
    {
        return std::filesystem::path(YUKTA_GOLDEN_DIR) /
               goldenFileName(scheme);
    }

    /** Whole committed golden file as bytes; fails if it is absent. */
    static std::string goldenBytes(const std::string& scheme)
    {
        std::ifstream is(goldenPath(scheme), std::ios::binary);
        EXPECT_TRUE(is.good())
            << "missing " << goldenPath(scheme)
            << " -- run tools/regen_golden.sh to (re)create it";
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    }

    /**
     * Runs the scenario live and asserts its trace is byte-identical
     * to the committed golden file, reporting the first diverging
     * tick and field otherwise.
     */
    static void expectMatchesGolden(const std::string& scheme)
    {
        obs::TraceSink sink("golden-" + scheme);
        captureGoldenTrace(scheme, *artifacts_, &sink);
        ASSERT_GT(sink.eventCount(), 0u);

        std::ostringstream live;
        sink.writeJsonl(live);
        const std::string expected = goldenBytes(scheme);
        if (live.str() == expected) {
            return;
        }
        std::istringstream want(expected);
        std::istringstream got(live.str());
        auto d = obs::diffJsonlStreams(want, got);
        ASSERT_TRUE(d.has_value());  // Bytes differ, so events must.
        FAIL() << "golden trace mismatch for scheme '" << scheme
               << "': " << obs::describeDivergence(*d)
               << "\nIf this change is intentional, re-bless with "
                  "tools/regen_golden.sh.";
    }

    static core::Artifacts* artifacts_;
};

core::Artifacts* GoldenFixture::artifacts_ = nullptr;

TEST_F(GoldenFixture, SsvMultilayerTraceMatchesGolden)
{
    expectMatchesGolden("ssv");
}

TEST_F(GoldenFixture, PidBaselineTraceMatchesGolden)
{
    expectMatchesGolden("pid");
}

TEST_F(GoldenFixture, CommittedTracesParseAndCarryBothLayers)
{
    for (const char* scheme : kGoldenSchemes) {
        std::ifstream is(goldenPath(scheme));
        std::string run_id;
        auto events = obs::readJsonlTrace(is, &run_id);
        ASSERT_TRUE(events.has_value()) << scheme;
        EXPECT_EQ(run_id, "golden-" + std::string(scheme));
        bool saw_hw = false;
        bool saw_cmd = false;
        bool saw_plant = false;
        for (const obs::TraceEvent& ev : *events) {
            saw_hw = saw_hw || ev.layer() == "hw";
            saw_cmd = saw_cmd || (ev.layer() == "sys" && ev.kind() == "cmd");
            saw_plant =
                saw_plant || (ev.layer() == "sys" && ev.kind() == "plant");
        }
        EXPECT_TRUE(saw_hw) << scheme;
        EXPECT_TRUE(saw_cmd) << scheme;
        EXPECT_TRUE(saw_plant) << scheme;
    }
}

TEST_F(GoldenFixture, RecipeDesignEntriesAreByteStable)
{
    // The traces pin the synthesized K, not the mu certificate stored
    // next to it, so pin the FNV-1a of every design-cache entry the
    // recipe wrote: entry name -> hash of the entry's bytes.
    const std::map<std::string, std::string> expected = {
        {"lqg-0bd7b0435deaca76", "9a33f977531ff417"},
        {"lqg-90aabfe96c4fec39", "3261c33770efe4ee"},
        {"lqg-fa7fa0f5b2a99b6c", "ea1df7cfc859567e"},
        {"ssv-7bf86c86485de446", "f9852b37c0ad37d2"},
        {"ssv-eb11e78c357b4530", "16103048770c2b0a"},
    };
    std::map<std::string, std::string> entries;
    for (const auto& f :
         // yukta-audit: allow(dir-iter) keyed by name in a std::map
         std::filesystem::directory_iterator(core::cacheDir())) {
        if (f.path().extension() != ".txt") {
            continue;
        }
        std::ifstream is(f.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << is.rdbuf();
        std::ostringstream hash;
        hash << std::hex << std::setw(16) << std::setfill('0')
             << obs::fnv1a(bytes.str());
        entries[f.path().stem().string()] = hash.str();
    }
    EXPECT_EQ(entries, expected);
}

TEST_F(GoldenFixture, TinyGainPerturbationIsCaughtWithFirstTick)
{
    // A 1e-6 bump on one entry of the synthesized SSV controller's
    // output map must surface as a first-divergent-tick report, not
    // slip through quantization.
    core::Artifacts perturbed = *artifacts_;
    perturbed.hw_ssv.controller.k.c(0, 0) += 1e-6;

    obs::TraceSink sink("golden-ssv");
    captureGoldenTrace("ssv", perturbed, &sink);

    std::istringstream want(goldenBytes("ssv"));
    std::ostringstream live;
    sink.writeJsonl(live);
    std::istringstream got(live.str());
    auto d = obs::diffJsonlStreams(want, got);
    ASSERT_TRUE(d.has_value())
        << "perturbed controller produced a byte-identical trace";
    const std::string report = obs::describeDivergence(*d);
    EXPECT_NE(report.find("tick"), std::string::npos) << report;
    EXPECT_NE(report.find(d->field), std::string::npos) << report;
}

}  // namespace
}  // namespace yukta::golden
