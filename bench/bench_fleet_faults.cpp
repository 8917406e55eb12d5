/**
 * @file
 * Fleet fault-tolerance benchmark: runs a board-crash / degrade /
 * hang scenario matrix twice -- fault-aware (watchdog + capacity-
 * scaled routing) vs fault-blind -- and emits BENCH_fleet_faults.json
 * with SLO-violation time, fault-domain counters, and tail latency.
 *
 * Correctness-gated, so CI can run it as a smoke stage:
 *  - every board-crash scenario must show the fault-aware mode
 *    *strictly* reducing SLO-violation time vs fault-blind,
 *  - the hang scenario's watchdog must recover strictly more
 *    board-epochs than the blind run loses,
 *  - the flagship faulted run must be bit-identical for 1 vs N pool
 *    workers (thread scheduling must not leak into results),
 *  - run-to-T must be bit-identical with run-to-T/2, checkpoint,
 *    restore into a fresh process-equivalent sim, run-to-T.
 *
 * It also reports, without gating, what one checkpoint of its fleet
 * costs: the bytes written and the best-of-10 save and restore wall
 * times.
 *
 * Usage: bench_fleet_faults [--quick] [--out PATH]
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "fleet/fleet.h"
#include "obs/stopwatch.h"

namespace {

using yukta::core::Artifacts;
using yukta::fleet::CheckpointConfig;
using yukta::fleet::FleetConfig;
using yukta::fleet::FleetMetrics;
using yukta::fleet::FleetSim;

struct Scenario
{
    std::string name;
    std::string faults;  ///< FaultPlan spec (board<i> targets).
    bool crash = false;  ///< Gated: aware SLO strictly < blind SLO.
    bool hang = false;   ///< Gated: aware loses fewer board-epochs.
};

struct ScenarioResult
{
    Scenario scenario;
    FleetMetrics aware;
    FleetMetrics blind;
};

/** Timing repetitions behind each checkpoint-cost number. */
constexpr int kCostRuns = 10;

/** What one fleet checkpoint costs. */
struct CheckpointCost
{
    std::uintmax_t bytes = 0;  ///< File size of one checkpoint.
    double save_ms = 0.0;      ///< Best saveCheckpoint wall time.
    double restore_ms = 0.0;   ///< Best restoreCheckpoint wall time.
};

/**
 * @return the cost of checkpointing @p sim after restoring the
 * snapshot at @p mid: kCostRuns saves to @p probe, then kCostRuns
 * restores from it, best of each.
 */
CheckpointCost
measureCheckpoint(FleetSim& sim, const std::string& mid,
                  const std::string& probe)
{
    sim.restoreCheckpoint(mid);
    CheckpointCost c;
    c.save_ms = std::numeric_limits<double>::infinity();
    c.restore_ms = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kCostRuns; ++i) {
        const yukta::obs::Stopwatch sw;
        sim.saveCheckpoint(probe);
        c.save_ms = std::min(c.save_ms, 1e3 * sw.seconds());
    }
    for (int i = 0; i < kCostRuns; ++i) {
        const yukta::obs::Stopwatch sw;
        sim.restoreCheckpoint(probe);
        c.restore_ms = std::min(c.restore_ms, 1e3 * sw.seconds());
    }
    c.bytes = std::filesystem::file_size(probe);
    return c;
}

FleetConfig
makeConfig(const Scenario& s, bool aware, int boards,
           double sim_seconds)
{
    FleetConfig cfg;
    cfg.boards = boards;
    cfg.sim_seconds = sim_seconds;
    cfg.seed = 11;
    cfg.supervised = true;
    cfg.arrivals.profile.base_rate = 6.0;
    cfg.admission.queue_capacity_gi = 8.0;
    cfg.faults = yukta::fault::FaultPlan::parse(s.faults);
    cfg.fault_aware = aware;
    return cfg;
}

void
printMetrics(const char* tag, const FleetMetrics& m)
{
    std::printf("  %-5s violation %7.1f bs  crashes %2lld  reboots "
                "%2lld  dropped %4lld  lost %4lld  timeouts %3lld  "
                "retries %3lld  p99 %6.2f s\n",
                tag, m.slo_violation_time, m.faults.crashes,
                m.faults.reboots, m.faults.dropped_requests,
                m.faults.lost_epochs, m.faults.watchdog_timeouts,
                m.faults.shard_retries, m.latency.quantile(0.99));
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_fleet_faults.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr
                << "usage: bench_fleet_faults [--quick] [--out PATH]\n";
            return 2;
        }
    }

    const int boards = quick ? 8 : 32;
    const double sim_seconds = quick ? 16.0 : 40.0;
    const std::size_t workers = std::max<std::size_t>(
        4, std::thread::hardware_concurrency());

    // Crash windows sized so the board is dark for a meaningful slice
    // of the run but reboots well before the end (the supervisor
    // ladder and the post-reboot drain are part of what is measured).
    std::vector<Scenario> scenarios;
    scenarios.push_back(
        {"single-crash", "board1:crash@2+6", true, false});
    scenarios.push_back({"double-crash",
                         "board1:crash@2+5;board3:crash@6+5", true,
                         false});
    scenarios.push_back({"crash-storm",
                         "board0:crash@1+4;board2:crash@3+4;"
                         "board4:crash@5+4",
                         true, false});
    scenarios.push_back(
        {"crash-plus-degrade",
         "board1:crash@2+6;board5:degrade@1+10*0.4", true, false});
    scenarios.push_back(
        {"transient-hang", "board2:hang@2+6", false, true});
    scenarios.push_back(
        {"persistent-hang", "board2:hang@2+4*1", false, false});

    std::fprintf(stderr, "building artifacts (cached after the first "
                         "bench run)...\n");
    const Artifacts artifacts = yukta::fleet::fleetArtifacts();

    bool ok = true;
    std::vector<ScenarioResult> results;
    for (const Scenario& s : scenarios) {
        std::printf("%s (%s):\n", s.name.c_str(), s.faults.c_str());
        ScenarioResult r;
        r.scenario = s;
        {
            FleetSim sim(makeConfig(s, true, boards, sim_seconds),
                         artifacts);
            r.aware = sim.run(workers);
        }
        {
            FleetSim sim(makeConfig(s, false, boards, sim_seconds),
                         artifacts);
            r.blind = sim.run(workers);
        }
        printMetrics("aware", r.aware);
        printMetrics("blind", r.blind);

        if (s.crash) {
            if (!(r.blind.slo_violation_time > 0.0)) {
                std::fprintf(stderr,
                             "FAIL: %s: blind run never violated the "
                             "SLO -- the crash did not hurt\n",
                             s.name.c_str());
                ok = false;
            }
            if (!(r.aware.slo_violation_time <
                  r.blind.slo_violation_time)) {
                std::fprintf(stderr,
                             "FAIL: %s: fault-aware mode did not "
                             "strictly reduce SLO violation time "
                             "(%.1f vs %.1f)\n",
                             s.name.c_str(), r.aware.slo_violation_time,
                             r.blind.slo_violation_time);
                ok = false;
            }
        }
        if (s.hang) {
            if (!(r.aware.faults.lost_epochs <
                  r.blind.faults.lost_epochs)) {
                std::fprintf(stderr,
                             "FAIL: %s: watchdog retries did not "
                             "recover board-epochs (%lld vs %lld "
                             "lost)\n",
                             s.name.c_str(), r.aware.faults.lost_epochs,
                             r.blind.faults.lost_epochs);
                ok = false;
            }
        }
        results.push_back(r);
    }

    // Worker-count determinism on the busiest faulted scenario: how
    // the pool schedules the shards must never reach the simulated
    // outcome.
    std::printf("faulted worker determinism (1 vs %zu workers):\n",
                workers);
    FleetMetrics serial;
    FleetMetrics parallel;
    {
        FleetSim sim(makeConfig(scenarios[2], true, boards, sim_seconds),
                     artifacts);
        serial = sim.run(1);
    }
    {
        FleetSim sim(makeConfig(scenarios[2], true, boards, sim_seconds),
                     artifacts);
        parallel = sim.run(workers);
    }
    std::printf("  digests %016llx / %016llx\n",
                static_cast<unsigned long long>(serial.digest()),
                static_cast<unsigned long long>(parallel.digest()));
    if (serial.digest() != parallel.digest()) {
        std::fprintf(stderr, "FAIL: faulted fleet run is not "
                             "bit-identical for 1 vs N workers\n");
        ok = false;
    }

    // Crash-resume determinism: full run vs run-to-half, checkpoint,
    // restore into a fresh sim (different worker count), run to the
    // end. Digests must match bit-for-bit.
    std::printf("checkpoint/restore determinism:\n");
    const std::filesystem::path ckpt_dir = "bench-fleet-faults-ckpt";
    std::filesystem::create_directories(ckpt_dir);
    const int half = static_cast<int>(
        sim_seconds / (2.0 * yukta::controllers::kControlPeriod));
    FleetMetrics resumed;
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = half;
        ckpt.dir = ckpt_dir.string();
        FleetSim sim(makeConfig(scenarios[3], true, boards, sim_seconds),
                     artifacts);
        (void)sim.run(workers, ckpt);
    }
    {
        FleetSim sim(makeConfig(scenarios[3], true, boards, sim_seconds),
                     artifacts);
        sim.restoreCheckpoint(
            (ckpt_dir / ("fleet-" + std::to_string(half) + ".ckpt"))
                .string());
        resumed = sim.run(1);
    }
    const FleetMetrics& full = results[3].aware;
    std::printf("  digests %016llx (full) / %016llx (resumed at epoch "
                "%d)\n",
                static_cast<unsigned long long>(full.digest()),
                static_cast<unsigned long long>(resumed.digest()), half);
    if (full.digest() != resumed.digest()) {
        std::fprintf(stderr, "FAIL: checkpoint/restore run is not "
                             "bit-identical with the uninterrupted "
                             "run\n");
        ok = false;
    }

    CheckpointCost cost;
    {
        FleetSim sim(makeConfig(scenarios[3], true, boards, sim_seconds),
                     artifacts);
        cost = measureCheckpoint(
            sim,
            (ckpt_dir / ("fleet-" + std::to_string(half) + ".ckpt"))
                .string(),
            (ckpt_dir / "probe.ckpt").string());
    }
    std::printf("checkpoint cost at epoch %d (best of %d): %ju bytes, "
                "save %.2f ms, restore %.2f ms\n",
                half, kCostRuns, cost.bytes, cost.save_ms,
                cost.restore_ms);
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"fleet_faults\",\n  \"boards\": " << boards
         << ",\n  \"sim_seconds\": " << sim_seconds
         << ",\n  \"workers\": " << workers << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        json << "    {\"name\": \"" << r.scenario.name
             << "\", \"faults\": \"" << r.scenario.faults
             << "\", \"crash_gated\": "
             << (r.scenario.crash ? "true" : "false")
             << ",\n     \"fault_aware\": " << r.aware.toJson(true)
             << ",\n     \"fault_blind\": " << r.blind.toJson(true)
             << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"worker_determinism\": {\"digest_serial\": \""
         << std::hex << serial.digest() << "\", \"digest_parallel\": \""
         << parallel.digest() << std::dec
         << "\", \"identical\": "
         << (serial.digest() == parallel.digest() ? "true" : "false")
         << "},\n  \"resume_determinism\": {\"digest_full\": \""
         << std::hex << full.digest() << "\", \"digest_resumed\": \""
         << resumed.digest() << std::dec
         << "\", \"checkpoint_epoch\": " << half
         << ", \"identical\": "
         << (full.digest() == resumed.digest() ? "true" : "false")
         << "},\n  \"checkpoint_cost\": {\"epoch\": " << half
         << ", \"bytes\": " << cost.bytes << ", \"best_of\": "
         << kCostRuns << ", \"save_ms\": " << cost.save_ms
         << ", \"restore_ms\": " << cost.restore_ms << "}\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
