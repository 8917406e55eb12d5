// The online adaptation loop through the fleet: drift-triggered
// re-synthesis and bumpless hot-swap run end to end inside FleetSim,
// the armed loop is invisible on the shipped plant (bit-identical
// digests), checkpoints carry the adapter (RLS, CUSUM, swapped
// controller text) across the swap, and restore refuses an
// adaptation-armed mismatch.
#include <stdlib.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controllers/supervisor.h"
#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "fleet/fleet.h"
#include "support/scratch_dir.h"

namespace {

using yukta::controllers::SupervisorMode;
using yukta::fleet::CheckpointConfig;
using yukta::fleet::FleetConfig;
using yukta::fleet::FleetMetrics;
using yukta::fleet::FleetSim;

/**
 * One-board adaptive fleet with a compressed adaptation timeline: armed
 * at 15 s (warmup + calibration), optional permanent 2.2x power
 * drift at 20 s, settle/swap within ~15 s of detection. 120 s total
 * leaves a long post-swap tail.
 */
FleetConfig
adaptConfig(bool adapt, bool drift)
{
    FleetConfig cfg;
    cfg.boards = 1;
    cfg.sim_seconds = 120.0;
    cfg.seed = 5;
    cfg.adapt = adapt;
    cfg.adapt_options.warmup_ticks = 10;
    cfg.adapt_options.calibration_ticks = 20;
    cfg.adapt_options.settle_ticks = 20;
    cfg.adapt_options.swap_delay_ticks = 4;
    cfg.adapt_options.cooldown_ticks = 40;
    if (drift) {
        cfg.faults =
            yukta::fault::FaultPlan::parse("board0:drift@20+9999*2.2");
    }
    return cfg;
}

std::string
checkpointDir(const std::string& tag)
{
    const std::string dir =
        ::testing::TempDir() + "yukta_adapt_ckpt_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// Drift -> CUSUM fire -> pool re-synthesis -> bumpless hot-swap, all
// inside a fleet run, deterministically across worker counts.
TEST(FleetAdapt, HotSwapRunsEndToEndAcrossWorkerCounts)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetMetrics serial;
    FleetMetrics parallel;
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        serial = sim.run(1);
    }
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        parallel = sim.run(4);
    }
    EXPECT_GE(serial.adapt.drift_events, 1);
    EXPECT_GE(serial.adapt.syntheses, 1);
    EXPECT_GE(serial.adapt.swaps, 1);
    // The synthesis job runs on the pool; the simulated outcome must
    // not know how many workers ran it.
    EXPECT_EQ(serial.digest(), parallel.digest());
    EXPECT_EQ(serial.adapt.swaps, parallel.adapt.swaps);

    // Supervised: the swap parks the ladder in kHold, and a few clean
    // ticks later it climbs back to kNominal.
    FleetConfig cfg = adaptConfig(true, true);
    cfg.supervised = true;
    std::vector<std::uint64_t> digests;
    for (std::size_t workers : {1, 2}) {
        FleetSim sim(cfg, artifacts);
        digests.push_back(sim.run(workers).digest());
        const auto* sup = sim.board(0).system.supervisor();
        ASSERT_NE(sup, nullptr);
        EXPECT_EQ(sup->report().invalid_ticks, 0);
        const auto& events = sup->report().events;
        ASSERT_EQ(events.size(), 2u);
        EXPECT_EQ(events[0].from, SupervisorMode::kNominal);
        EXPECT_EQ(events[0].to, SupervisorMode::kHold);
        EXPECT_EQ(events[0].reason, "hw controller hot-swap");
        EXPECT_EQ(events[1].to, SupervisorMode::kNominal);
    }
    EXPECT_EQ(digests[0], digests[1]);
}

/** Points YUKTA_CACHE_DIR at @p dir until destruction, then restores it. */
class CacheDirOverride
{
  public:
    explicit CacheDirOverride(const std::filesystem::path& dir)
    {
        // yukta-audit: allow(getenv) saved only to be restored
        if (const char* old = std::getenv("YUKTA_CACHE_DIR")) {
            saved_ = old;
        }
        setenv("YUKTA_CACHE_DIR", dir.c_str(), 1);
    }

    ~CacheDirOverride()
    {
        if (saved_) {
            setenv("YUKTA_CACHE_DIR", saved_->c_str(), 1);
        } else {
            unsetenv("YUKTA_CACHE_DIR");
        }
    }

    CacheDirOverride(const CacheDirOverride&) = delete;
    CacheDirOverride& operator=(const CacheDirOverride&) = delete;

  private:
    std::optional<std::string> saved_;
};

/** @return entry name -> bytes of every design-cache entry in @p dir. */
std::map<std::string, std::string>
cacheEntries(const std::filesystem::path& dir)
{
    std::map<std::string, std::string> entries;
    // yukta-audit: allow(dir-iter) keyed by name in a std::map
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
        if (f.path().extension() != ".txt") {
            continue;
        }
        std::ifstream is(f.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << is.rdbuf();
        entries[f.path().stem().string()] = bytes.str();
    }
    return entries;
}

// The re-synthesis itself, not a cache hit, must not know how many
// threads ran its mu sweeps: each worker count synthesizes into its
// own empty cache (HotSwapRunsEndToEndAcrossWorkerCounts's 4-worker
// run is served by the cache its 1-worker run filled).
TEST(FleetAdapt, ColdResynthesisIsBitIdenticalAcrossWorkerCounts)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    std::vector<std::uint64_t> digests;
    std::vector<std::map<std::string, std::string>> entries;
    for (std::size_t workers : {1, 4}) {
        const yukta::testsupport::ScratchDir cache("yukta_fleet_cold");
        const CacheDirOverride redirect(cache.path());
        FleetSim sim(adaptConfig(true, true), artifacts);
        const FleetMetrics m = sim.run(workers);
        EXPECT_EQ(m.adapt.cache_hits, 0) << workers << " workers";
        EXPECT_GE(m.adapt.syntheses, 1) << workers << " workers";
        digests.push_back(m.digest());
        entries.push_back(cacheEntries(cache.path()));
        EXPECT_FALSE(entries.back().empty()) << workers << " workers";
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(entries[0], entries[1]);
}

// On the plant the shipped model describes, the armed loop must be
// invisible: no drift events and a digest bit-identical to the
// disarmed run (adapt is excluded from the run's canonical identity).
TEST(FleetAdapt, ArmedLoopIsInvisibleWithoutDrift)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetMetrics armed;
    FleetMetrics disarmed;
    {
        FleetSim sim(adaptConfig(true, false), artifacts);
        armed = sim.run(2);
    }
    {
        FleetSim sim(adaptConfig(false, false), artifacts);
        disarmed = sim.run(2);
    }
    EXPECT_EQ(armed.adapt.drift_events, 0);
    EXPECT_EQ(armed.adapt.swaps, 0);
    EXPECT_EQ(armed.digest(), disarmed.digest());
}

// A checkpoint taken after the hot-swap must restore into a fresh
// process-equivalent sim -- swapped controller re-materialized from
// its canonical text, RLS/CUSUM state resumed -- and finish
// bit-identical to the uninterrupted run.
TEST(FleetAdapt, CheckpointResumeAcrossSwapIsBitIdentical)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const std::string dir = checkpointDir("swap");
    // 120 epochs = 60 s: past detection (~20 s), settle (10 s), and
    // the swap; well before the end.
    const int split = 120;
    std::uint64_t base = 0;
    long long base_swaps = 0;
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir;
        FleetSim sim(adaptConfig(true, true), artifacts);
        FleetMetrics m = sim.run(2, ckpt);
        base = m.digest();
        base_swaps = m.adapt.swaps;
    }
    ASSERT_GE(base_swaps, 1) << "split must land after the swap";
    std::uint64_t resumed = 0;
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        sim.restoreCheckpoint(dir + "/fleet-" + std::to_string(split) +
                              ".ckpt");
        EXPECT_EQ(sim.epoch(), split);
        resumed = sim.run(1).digest();
    }
    EXPECT_EQ(base, resumed);
    std::filesystem::remove_all(dir);
}

// A checkpoint records whether each board carried an adapter;
// restoring it into a sim with adaptation configured differently
// must refuse rather than silently drop (or invent) adapter state.
TEST(FleetAdapt, RestoreRefusesAdaptationMismatch)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const std::string dir = checkpointDir("mismatch");
    const int split = 60;
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir;
        FleetSim sim(adaptConfig(true, true), artifacts);
        (void)sim.run(2, ckpt);
    }
    const std::string path =
        dir + "/fleet-" + std::to_string(split) + ".ckpt";
    {
        FleetSim sim(adaptConfig(false, true), artifacts);
        EXPECT_THROW(sim.restoreCheckpoint(path), std::runtime_error);
    }
    {
        // The adapt-armed sim restores its own checkpoint fine.
        FleetSim sim(adaptConfig(true, true), artifacts);
        sim.restoreCheckpoint(path);
        EXPECT_EQ(sim.epoch(), split);
    }
    std::filesystem::remove_all(dir);

    // And the converse: a checkpoint from a non-adaptive run must not
    // restore into an adapt-armed sim.
    const std::string dir2 = checkpointDir("mismatch2");
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir2;
        FleetSim sim(adaptConfig(false, true), artifacts);
        (void)sim.run(2, ckpt);
    }
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        EXPECT_THROW(
            sim.restoreCheckpoint(dir2 + "/fleet-" +
                                  std::to_string(split) + ".ckpt"),
            std::runtime_error);
    }
    std::filesystem::remove_all(dir2);
}

}  // namespace
