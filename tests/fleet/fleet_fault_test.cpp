// Fleet fault tolerance: the board-crash fault domain (dark boards,
// queue loss, supervisor-ladder cold reboots), watchdog-guarded shard
// execution (transient hangs recovered, persistent hangs marked
// lost), and checkpoint/resume -- the crash-restore property is
// bit-identical digests across seeds, worker counts, and the
// checkpoint split point.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controllers/supervisor.h"
#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "fleet/fleet.h"
#include "obs/rollup.h"

namespace {

using yukta::controllers::SupervisorEvent;
using yukta::controllers::SupervisorMode;
using yukta::fleet::CheckpointConfig;
using yukta::fleet::FleetConfig;
using yukta::fleet::FleetMetrics;
using yukta::fleet::FleetSim;

/** Small faulted fleet with test-friendly watchdog wall deadlines. */
FleetConfig
smallConfig(std::uint32_t seed, const std::string& faults)
{
    FleetConfig cfg;
    cfg.boards = 3;
    cfg.sim_seconds = 4.0;  // 8 epochs.
    cfg.seed = seed;
    cfg.arrivals.profile.base_rate = 6.0;
    cfg.watchdog_timeout_s = 0.05;
    cfg.watchdog_backoff_s = 0.02;
    if (!faults.empty()) {
        cfg.faults = yukta::fault::FaultPlan::parse(faults);
    }
    return cfg;
}

/** Fresh empty checkpoint directory under the test temp root. */
std::string
checkpointDir(const std::string& tag)
{
    const std::string dir =
        ::testing::TempDir() + "yukta_fleet_ckpt_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// The tentpole property: run-to-T and run-to-T/k + restore +
// run-to-T yield bit-identical digests, across seeds, worker counts
// (the baseline and resumed legs deliberately use different counts),
// fault schedules, the checkpoint split epoch, every scheme, and
// supervised as well as bare boards.
TEST(FleetFaults, CrashRestoreDigestIdentityAcrossSeedsAndWorkers)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const auto schemes = yukta::core::allSchemes();
    const std::size_t workers[] = {1, 2, 4};
    const std::string fault_spec =
        "board1:crash@1+1.5;board0:hang@2+1;board2:degrade@0.5+2*0.4";

    for (std::uint32_t seed = 1; seed <= 21; ++seed) {
        // Odd seeds run the full fault schedule; even seeds are
        // healthy, so both regimes cross the checkpoint machinery.
        FleetConfig cfg =
            smallConfig(seed, seed % 2 == 1 ? fault_spec : "");
        // The scheme cycles with the seed and supervision flips every
        // full cycle, so each (scheme, supervised) pair saves and
        // restores its controllers (and ladder) at least once.
        cfg.scheme = schemes[seed % schemes.size()];
        cfg.supervised = (seed / schemes.size()) % 2 == 1;
        const std::size_t w_base = workers[seed % 3];
        const std::size_t w_resume = workers[(seed + 1) % 3];
        // Split epoch cycles through [1, 7] of the 8-epoch run.
        const int split = 1 + static_cast<int>(seed % 7);
        const std::string dir =
            checkpointDir("seeds_" + std::to_string(seed));

        std::uint64_t base = 0;
        {
            FleetSim sim(cfg, artifacts);
            CheckpointConfig ckpt;
            ckpt.every_epochs = split;
            ckpt.dir = dir;
            base = sim.run(w_base, ckpt).digest();
        }
        std::uint64_t resumed = 0;
        {
            FleetSim sim(cfg, artifacts);
            sim.restoreCheckpoint(dir + "/fleet-" +
                                  std::to_string(split) + ".ckpt");
            EXPECT_EQ(sim.epoch(), split);
            resumed = sim.run(w_resume).digest();
        }
        EXPECT_EQ(base, resumed)
            << "seed " << seed << " split " << split << " workers "
            << w_base << "->" << w_resume << " scheme "
            << yukta::core::schemeName(cfg.scheme)
            << (cfg.supervised ? " supervised" : "");
        std::filesystem::remove_all(dir);
    }
}

// Faulted runs must stay a pure function of the config: identical
// digests for any worker count, and for any wall-clock watchdog
// deadline (the deadline bounds real time, never the result).
TEST(FleetFaults, FaultedRunIsBitIdenticalForAnyWorkerCount)
{
    FleetConfig cfg = smallConfig(
        9, "board0:crash@1+1;board1:hang@2+1;board2:hang@0.5+1*1;"
           "board0:degrade@2.5+1*0.3");
    cfg.boards = 4;
    const auto artifacts = yukta::fleet::fleetArtifacts();

    const std::size_t workers[] = {1, 2, 4};
    const double timeouts[] = {0.03, 0.05, 0.08};
    std::uint64_t digests[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
        FleetConfig c = cfg;
        c.watchdog_timeout_s = timeouts[i];
        FleetSim sim(c, artifacts);
        digests[i] = sim.run(workers[i]).digest();
    }
    EXPECT_EQ(digests[0], digests[1]);
    EXPECT_EQ(digests[0], digests[2]);
}

TEST(FleetFaults, SupervisedCrashColdRebootsThroughLadder)
{
    FleetConfig cfg = smallConfig(5, "board0:crash@1+1");
    cfg.supervised = true;
    const auto artifacts = yukta::fleet::fleetArtifacts();

    FleetSim sim(cfg, artifacts);
    const FleetMetrics m = sim.run(2);

    EXPECT_EQ(m.faults.crashes, 1);
    EXPECT_EQ(m.faults.reboots, 1);
    EXPECT_EQ(sim.board(0).reboots, 1);
    EXPECT_FALSE(sim.board(0).down);

    // The replacement instance re-entered service at the bottom of
    // the supervisor ladder: its log opens with the cold-boot
    // transition into kSafe.
    const auto* sup = sim.board(0).system.supervisor();
    ASSERT_NE(sup, nullptr);
    const std::vector<SupervisorEvent>& events = sup->report().events;
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events[0].to, SupervisorMode::kSafe);
    EXPECT_NE(events[0].reason.find("cold reboot"), std::string::npos);

    // The unsupervised boards never crashed and carry no reboots.
    EXPECT_EQ(sim.board(1).reboots, 0);
    EXPECT_EQ(sim.board(2).reboots, 0);
}

// Supervision + fault-aware routing must strictly cut SLO-violation
// time versus a fault-blind fleet in a board-crash scenario: the
// blind fleet keeps routing demand into the dark board.
TEST(FleetFaults, AwareBeatsBlindOnCrashSlo)
{
    FleetConfig cfg = smallConfig(3, "board1:crash@1+2");
    cfg.boards = 4;
    cfg.sim_seconds = 8.0;
    cfg.arrivals.profile.base_rate = 10.0;
    const auto artifacts = yukta::fleet::fleetArtifacts();

    FleetMetrics aware;
    FleetMetrics blind;
    {
        FleetSim sim(cfg, artifacts);
        aware = sim.run(2);
    }
    {
        FleetConfig b = cfg;
        b.fault_aware = false;
        FleetSim sim(b, artifacts);
        blind = sim.run(2);
    }
    EXPECT_GT(blind.slo_violation_time, 0.0);
    EXPECT_LT(aware.slo_violation_time, blind.slo_violation_time);
    // Both fleets saw the same crash; only the response differed.
    EXPECT_EQ(aware.faults.crashes, 1);
    EXPECT_EQ(blind.faults.crashes, 1);
}

TEST(FleetFaults, WatchdogRecoversTransientHangEpochs)
{
    const std::string spec = "board0:hang@1+1";
    const auto artifacts = yukta::fleet::fleetArtifacts();

    FleetMetrics aware;
    {
        FleetSim sim(smallConfig(7, spec), artifacts);
        aware = sim.run(2);
    }
    // A transient hang stalls the first attempt of each window epoch;
    // the watchdog detects it and the retry steps the board, so no
    // epoch is lost. The 1 s window spans 2 epochs.
    EXPECT_EQ(aware.faults.lost_epochs, 0);
    EXPECT_EQ(aware.faults.watchdog_timeouts, 2);
    EXPECT_EQ(aware.faults.shard_retries, 2);

    FleetMetrics blind;
    {
        FleetConfig b = smallConfig(7, spec);
        b.fault_aware = false;
        FleetSim sim(b, artifacts);
        blind = sim.run(2);
    }
    // Fault-blind: nothing notices the stall; both window epochs are
    // silently lost.
    EXPECT_EQ(blind.faults.lost_epochs, 2);
    EXPECT_EQ(blind.faults.watchdog_timeouts, 0);
    EXPECT_EQ(blind.faults.shard_retries, 0);
}

TEST(FleetFaults, PersistentHangMarksBoardLostForTheWindow)
{
    // Persistent hang (magnitude > 0) over 2 s = 4 epochs.
    FleetConfig cfg = smallConfig(7, "board0:hang@1+2*1");
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetSim sim(cfg, artifacts);
    const FleetMetrics m = sim.run(2);

    // Epoch 1: both watchdog attempts time out, the board is declared
    // lost; epochs 2-4 of the window skip it without blocking.
    EXPECT_EQ(m.faults.watchdog_timeouts, 2);
    EXPECT_EQ(m.faults.shard_retries, 1);
    EXPECT_EQ(m.faults.lost_epochs, 4);
    // After the window the board serves again.
    EXPECT_EQ(sim.board(0).lost_until, 3.0);
}

TEST(FleetFaults, DegradeCutsServiceCapacity)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetConfig cfg = smallConfig(11, "");
    cfg.arrivals.profile.base_rate = 10.0;

    FleetMetrics healthy;
    {
        FleetSim sim(cfg, artifacts);
        healthy = sim.run(2);
    }
    FleetConfig deg = cfg;
    deg.faults = yukta::fault::FaultPlan::parse("board0:degrade@0+4*0.2");
    FleetMetrics degraded;
    {
        FleetSim sim(deg, artifacts);
        degraded = sim.run(2);
    }
    EXPECT_EQ(degraded.faults.degraded_epochs, 8);
    EXPECT_LT(degraded.served_gi, healthy.served_gi);
}

TEST(FleetFaults, CheckpointTamperAndMismatchRejected)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const FleetConfig cfg = smallConfig(13, "board1:crash@1+1");
    const std::string dir = checkpointDir("tamper");
    const std::string path = dir + "/fleet.ckpt";
    {
        FleetSim sim(cfg, artifacts);
        CheckpointConfig ckpt;
        ckpt.every_epochs = 4;
        ckpt.dir = dir;
        (void)sim.run(1, ckpt);
        // run() wrote fleet-4.ckpt; also exercise the direct call.
        sim.saveCheckpoint(path);
    }

    // A valid snapshot restores (sanity for the negative cases).
    {
        FleetSim sim(cfg, artifacts);
        sim.restoreCheckpoint(dir + "/fleet-4.ckpt");
        EXPECT_EQ(sim.epoch(), 4);
        // The end-of-run snapshot restores to the final epoch.
        sim.restoreCheckpoint(path);
        EXPECT_EQ(sim.epoch(), 8);
    }

    // Flipped payload byte: the digest stamp must catch it.
    {
        std::ifstream in(path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t mid = text.size() / 2;
        text[mid] = text[mid] == 'x' ? 'y' : 'x';
        std::ofstream out(path + ".bad", std::ios::binary);
        out << text;
    }
    {
        FleetSim sim(cfg, artifacts);
        EXPECT_THROW(sim.restoreCheckpoint(path + ".bad"),
                     std::runtime_error);
    }

    // A different config (seed) must be refused before any state is
    // deserialized.
    {
        FleetConfig other = cfg;
        other.seed = 14;
        FleetSim sim(other, artifacts);
        EXPECT_THROW(sim.restoreCheckpoint(path), std::runtime_error);
    }

    // Missing file.
    {
        FleetSim sim(cfg, artifacts);
        EXPECT_THROW(sim.restoreCheckpoint(dir + "/absent.ckpt"),
                     std::runtime_error);
    }
    std::filesystem::remove_all(dir);
}

// run() serializes each periodic checkpoint once and writes the bytes
// to both fleet-<N>.ckpt and fleet-latest.ckpt, so the alias equals
// the last stamped file and both resume to the uninterrupted digest.
TEST(FleetFaults, LatestCheckpointIsTheLastStampedOne)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const FleetConfig cfg = smallConfig(5, "board1:crash@1+1.5");
    const std::string dir = checkpointDir("latest");
    std::uint64_t base = 0;
    {
        FleetSim sim(cfg, artifacts);
        CheckpointConfig ckpt;
        ckpt.every_epochs = 3;  // 8 epochs: fleet-3 and fleet-6.
        ckpt.dir = dir;
        base = sim.run(2, ckpt).digest();
    }
    const auto slurp = [&dir](const std::string& name) {
        std::ifstream in(dir + "/" + name, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    };
    const std::string last = slurp("fleet-6.ckpt");
    EXPECT_FALSE(last.empty());
    EXPECT_EQ(slurp("fleet-latest.ckpt"), last);
    EXPECT_NE(slurp("fleet-3.ckpt"), last);

    for (const std::string name : {"fleet-6.ckpt", "fleet-latest.ckpt"}) {
        FleetSim sim(cfg, artifacts);
        sim.restoreCheckpoint(dir + "/" + name);
        EXPECT_EQ(sim.epoch(), 6) << name;
        EXPECT_EQ(sim.run(1).digest(), base) << name;
    }
    std::filesystem::remove_all(dir);
}

// The checkpoint format, pinned to the byte: the FNV-1a of the final
// checkpoints of a small adaptive fleet with a crash and a degrade
// window, for every scheme, bare and supervised. Any change to a key,
// a field's order or its encoding moves this hash; a deliberate format
// change re-blesses it together with a kCheckpointVersion bump.
TEST(FleetFaults, CheckpointBytesArePinned)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const std::string dir = checkpointDir("pinned");
    const std::string path = dir + "/fleet.ckpt";
    std::string all;
    for (const yukta::core::Scheme scheme : yukta::core::allSchemes()) {
        for (const bool supervised : {false, true}) {
            FleetConfig cfg = smallConfig(
                7, "board1:crash@1+1;board2:degrade@0.5+2*0.4");
            cfg.adapt = true;
            cfg.scheme = scheme;
            cfg.supervised = supervised;
            FleetSim sim(cfg, artifacts);
            (void)sim.run(1);
            sim.saveCheckpoint(path);
            std::ifstream in(path, std::ios::binary);
            all.append(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
        }
    }
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(yukta::obs::fnv1a(all)));
    EXPECT_EQ(all.size(), 1833848u);
    EXPECT_STREQ(hash, "d5c72465de1a6bac");
    std::filesystem::remove_all(dir);
}

// A checkpoint with one field edited and its stamp recomputed -- so
// only the reader stands between the edit and the fleet -- is refused,
// and the error names the field. Another format version is refused by
// name: there is no reader for older versions. The other edits do not
// fit the member they restore (an int, an enum, a count that would
// allocate past the body) and were once truncated or accepted.
TEST(FleetFaults, RestampedFieldEditsAreRefusedByKey)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetConfig cfg = smallConfig(13, "");
    cfg.supervised = true;
    const std::string dir = checkpointDir("restamped");
    {
        FleetSim sim(cfg, artifacts);
        CheckpointConfig ckpt;
        ckpt.every_epochs = 6;
        ckpt.dir = dir;
        (void)sim.run(1, ckpt);
    }
    std::string text;
    {
        std::ifstream in(dir + "/fleet-6.ckpt", std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    const std::size_t stamp_at = text.rfind("ckpt.digest=");
    ASSERT_NE(stamp_at, std::string::npos);
    text.resize(stamp_at);

    const struct
    {
        const char* key;
        const char* value;
        const char* error;
    } edits[] = {
        {"ckpt.version", "2", "unsupported checkpoint version 2 (expected 3)"},
        {"ckpt.epoch", "4294967302", "reading 'ckpt.epoch'"},
        {"ml.periods", "4294967302", "reading 'ml.periods'"},
        {"sup.mode", "9", "reading 'sup.mode'"},
        {"sup.events", "4294967302", "reading 'sup.events'"},
    };
    const std::string path = dir + "/edited.ckpt";
    for (const auto& edit : edits) {
        // Replace the value on the key's first line.
        const std::string key = std::string(edit.key) + "=";
        const std::size_t at = ("\n" + text).find("\n" + key);
        ASSERT_NE(at, std::string::npos) << edit.key;
        const std::size_t from = at + key.size();
        std::string body = text;
        body.replace(from, body.find('\n', from) - from, edit.value);
        char stamp[17];
        std::snprintf(
            stamp, sizeof stamp, "%016llx",
            static_cast<unsigned long long>(yukta::obs::fnv1a(body)));
        {
            std::ofstream out(path, std::ios::binary);
            out << body << "ckpt.digest=" << stamp << "\n";
        }
        // A refused restore leaves its FleetSim partly restored.
        FleetSim sim(cfg, artifacts);
        try {
            sim.restoreCheckpoint(path);
            ADD_FAILURE() << edit.key << "=" << edit.value
                          << " was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(edit.error),
                      std::string::npos)
                << e.what();
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(FleetFaults, ConstructorRejectsBadFaultPlans)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    // Non-board targets never reach the fleet.
    {
        FleetConfig cfg = smallConfig(1, "");
        cfg.faults = yukta::fault::FaultPlan::parse("p_big:nan@0+1");
        EXPECT_THROW(FleetSim(cfg, artifacts), std::invalid_argument);
    }
    // Board index outside the fleet.
    {
        FleetConfig cfg = smallConfig(1, "board7:crash@0+1");
        EXPECT_THROW(FleetSim(cfg, artifacts), std::invalid_argument);
    }
    // Watchdog attempts must allow at least one try.
    {
        FleetConfig cfg = smallConfig(1, "");
        cfg.watchdog_attempts = 0;
        EXPECT_THROW(FleetSim(cfg, artifacts), std::invalid_argument);
    }
}

}  // namespace
