// Sweep engine: expansion, failure isolation, event traces, and the
// central guarantee -- aggregated metrics are bit-identical no matter
// how many workers ran the sweep.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "runner/sweep.h"
#include "support/scratch_dir.h"

namespace yukta::runner {
namespace {

testsupport::CacheDirEnvironment* const cache_env =
    testsupport::addCacheDirEnvironment("yukta_runner_test");

/** One reduced artifact bundle shared by the engine tests. */
class SweepFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        core::ArtifactOptions opt;
        opt.training.apps = {"swaptions", "milc"};
        opt.training.seconds_per_app = 60.0;
        opt.dk.max_iterations = 1;
        opt.dk.mu_grid = 12;
        opt.dk.bisection_steps = 8;
        artifacts_ = new core::Artifacts(core::buildArtifacts(
            platform::BoardConfig::odroidXu3(), opt));
    }

    static void TearDownTestSuite()
    {
        delete artifacts_;
        artifacts_ = nullptr;
    }

    static runner::SweepSpec smallSweep()
    {
        SweepSpec spec;
        spec.schemes = {core::Scheme::kCoordinatedHeuristic,
                        core::Scheme::kYuktaHwSsvOsHeuristic};
        spec.workloads = {"swaptions", "milc"};
        spec.seeds = {1, 2};
        spec.max_seconds = 240.0;
        return spec;
    }

    static core::Artifacts* artifacts_;
};

core::Artifacts* SweepFixture::artifacts_ = nullptr;

TEST(Sweep, ExpandIsTheSchemeMajorCrossProduct)
{
    SweepSpec spec;
    spec.schemes = {core::Scheme::kCoordinatedHeuristic,
                    core::Scheme::kYuktaFull};
    spec.workloads = {"a", "b", "c"};
    spec.seeds = {7, 9};
    auto runs = expandSweep(spec);
    ASSERT_EQ(runs.size(), 12u);
    EXPECT_EQ(runs[0].workload, "a");
    EXPECT_EQ(runs[0].seed, 7u);
    EXPECT_EQ(runs[1].seed, 9u);
    EXPECT_EQ(runs[2].workload, "b");
    EXPECT_EQ(runs[5].seed, 9u);
    EXPECT_EQ(runs[6].scheme, core::Scheme::kYuktaFull);
    EXPECT_EQ(runs[11].workload, "c");
}

TEST(Sweep, SchemeIdsRoundTrip)
{
    for (core::Scheme s : core::allSchemes()) {
        auto parsed = schemeFromId(schemeId(s));
        ASSERT_TRUE(parsed.has_value()) << schemeId(s);
        EXPECT_EQ(*parsed, s);
    }
    EXPECT_FALSE(schemeFromId("nonsense").has_value());
}

TEST_F(SweepFixture, AggregatedMetricsAreIdenticalAcrossWorkerCounts)
{
    RunnerOptions serial;
    serial.workers = 1;
    auto a = runSweep(*artifacts_, smallSweep(), serial);

    RunnerOptions parallel;
    parallel.workers = 4;
    auto b = runSweep(*artifacts_, smallSweep(), parallel);

    ASSERT_EQ(a.records.size(), 8u);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const RunRecord& ra = a.records[i];
        const RunRecord& rb = b.records[i];
        EXPECT_EQ(ra.status, TaskOutcome::Status::kOk) << ra.error;
        EXPECT_EQ(ra.scheme, rb.scheme);
        EXPECT_EQ(ra.workload, rb.workload);
        EXPECT_EQ(ra.seed, rb.seed);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(ra.metrics.exec_time, rb.metrics.exec_time);
        EXPECT_EQ(ra.metrics.energy, rb.metrics.energy);
        EXPECT_EQ(ra.metrics.exd, rb.metrics.exd);
        EXPECT_EQ(ra.metrics.completed, rb.metrics.completed);
        EXPECT_EQ(ra.metrics.emergency_time, rb.metrics.emergency_time);
        EXPECT_EQ(ra.metrics.periods, rb.metrics.periods);
    }
}

namespace {

/** Reads a whole file into a string ("" when absent). */
std::string
slurp(const std::filesystem::path& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

}  // namespace

TEST_F(SweepFixture, EventTracesAreBitIdenticalAcrossWorkerCounts)
{
    SweepSpec spec = smallSweep();
    spec.workloads = {"swaptions"};
    spec.seeds = {1};
    spec.supervised = true;
    spec.fault_plan = "seed=3;p_big:nan@30+6";

    const testsupport::ScratchDir scratch("yukta_trace_test");
    const std::filesystem::path& base = scratch.path();

    RunnerOptions serial;
    serial.workers = 1;
    serial.trace_dir = (base / "serial").string();
    serial.trace_format = "both";
    auto a = runSweep(*artifacts_, spec, serial);

    RunnerOptions parallel = serial;
    parallel.workers = 4;
    parallel.trace_dir = (base / "parallel").string();
    auto b = runSweep(*artifacts_, spec, parallel);

    ASSERT_EQ(a.records.size(), 2u);
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].status, TaskOutcome::Status::kOk)
            << a.records[i].error;
        EXPECT_GT(a.records[i].trace_events, 0);
        EXPECT_EQ(a.records[i].trace_events, b.records[i].trace_events);
    }

    // Same file names, bit-identical bytes, regardless of pool size.
    std::vector<std::string> names;
    for (const auto& entry :
         // yukta-audit: allow(dir-iter) names sorted below
         std::filesystem::directory_iterator(serial.trace_dir)) {
        names.push_back(entry.path().filename().string());
    }
    // Directory order is filesystem-dependent; sort so assertion
    // failures point at the same file on every run.
    std::sort(names.begin(), names.end());
    ASSERT_EQ(names.size(), 4u);  // 2 runs x {jsonl, chrome}.
    for (const std::string& name : names) {
        const std::string sa =
            slurp(std::filesystem::path(serial.trace_dir) / name);
        const std::string sb =
            slurp(std::filesystem::path(parallel.trace_dir) / name);
        EXPECT_FALSE(sa.empty()) << name;
        EXPECT_EQ(sa, sb) << name;
    }

    // The JSONL traces parse and carry supervisor + fault events.
    for (const std::string& name : names) {
        if (name.find(".trace.jsonl") == std::string::npos) {
            continue;
        }
        std::ifstream is(std::filesystem::path(serial.trace_dir) / name);
        auto events = obs::readJsonlTrace(is);
        ASSERT_TRUE(events.has_value()) << name;
        bool saw_cmd = false;
        bool saw_fault = false;
        for (const auto& ev : *events) {
            saw_cmd = saw_cmd || (ev.layer() == "sys" && ev.kind() == "cmd");
            saw_fault = saw_fault || ev.layer() == "fault";
        }
        EXPECT_TRUE(saw_cmd) << name;
        EXPECT_TRUE(saw_fault) << name;
    }
}

TEST_F(SweepFixture, OneBadRunIsIsolatedAndReported)
{
    SweepSpec spec;
    spec.schemes = {core::Scheme::kCoordinatedHeuristic};
    spec.workloads = {"swaptions", "no-such-app"};
    spec.seeds = {1};
    spec.max_seconds = 240.0;

    RunnerOptions options;
    options.workers = 2;
    auto result = runSweep(*artifacts_, spec, options);

    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].status, TaskOutcome::Status::kOk);
    EXPECT_EQ(result.records[1].status, TaskOutcome::Status::kError);
    EXPECT_FALSE(result.records[1].error.empty());
    EXPECT_EQ(result.countStatus(TaskOutcome::Status::kError), 1u);
    EXPECT_NE(result.metricsFor(core::Scheme::kCoordinatedHeuristic,
                                "swaptions", 1),
              nullptr);
    EXPECT_EQ(result.metricsFor(core::Scheme::kCoordinatedHeuristic,
                                "no-such-app", 1),
              nullptr);
}

}  // namespace
}  // namespace yukta::runner
