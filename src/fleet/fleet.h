#ifndef YUKTA_FLEET_FLEET_H_
#define YUKTA_FLEET_FLEET_H_

/**
 * @file
 * Sharded fleet simulator: N independent board instances (each the
 * full platform + multilayer controller + optional supervisor stack)
 * stepped in lockstep 500 ms epochs under an open-loop Poisson
 * request workload, a fleet-level admission layer, and a cluster
 * controller that redistributes per-board power/performance targets.
 *
 * Execution runs three phases per epoch:
 *
 *   serial fault pass -- apply board-fault transitions (crashes and
 *     cold reboots, drift), then decide each board's epoch from the
 *     fault plan alone: dark, lost, degraded, or stalled by a hang
 *     (and the watchdog's verdict on it), hence whether it steps,
 *     what capacity it advertises, and at what rate it drains.
 *   serial coordinator -- generate arrivals (counter-hashed), route
 *     them through admission, and (on due epochs) recompute and pin
 *     cluster targets; everything in board index order.
 *   parallel shards -- shared-nothing: one pool pass in which each
 *     shard steps its boards one control period and drains their
 *     request queues at the rate of giga-instructions actually
 *     retired. No shared mutable state, no locks, no clock.
 *
 * Because the serial phases are deterministic, the shards are
 * shared-nothing, and rollups merge in board index order, the run
 * result is a pure function of the config: bit-identical for 1 vs N
 * pool workers (FleetMetrics::digest() makes that one integer
 * comparison).
 *
 * Fault tolerance. The config may carry a board-targeted FaultPlan
 * (board<i> targets: crash, degrade, hang, drift -- see
 * fault/plan.h). Crashed boards go dark (their queue dropped or
 * preserved per the window's magnitude) and cold-reboot through the
 * supervisor ladder when the window ends. A hang stalls the shard
 * worker stepping its board: a transient one for one attempt, a
 * persistent one for every attempt. With fault_aware set, a watchdog
 * times out each stalled attempt and retries, up to
 * watchdog_attempts; a board whose stalls outlast them loses the
 * epoch, and a persistently hung one is marked lost for the rest of
 * its window so admission and the cluster layer route around it.
 * Fault-blind runs keep routing work to dark boards and silently lose
 * every stalled epoch -- the baseline bench_fleet_faults compares
 * against. The fault pass settles these verdicts from simulated time
 * before any board steps, so nothing waits on a wall clock.
 *
 * Checkpoint/resume. saveCheckpoint() serializes the entire fleet --
 * every board's plant, controller, and supervisor state, request
 * queues, admission/cluster counters, and the fault-domain flags --
 * as a versioned, digest-stamped snapshot written atomically
 * (tmp+rename). restoreCheckpoint() verifies the stamp and the
 * config identity and resumes mid-run: run-to-T and
 * run-to-T/2 + restore + run-to-T produce bit-identical digests.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "controllers/multilayer.h"
#include "core/adapt.h"
#include "core/schemes.h"
#include "fault/plan.h"
#include "fleet/admission.h"
#include "fleet/arrivals.h"
#include "fleet/cluster.h"
#include "obs/rollup.h"
#include "obs/stateio.h"
#include "platform/apps.h"

namespace yukta::fleet {

/**
 * @return the fleet's default online-adaptation options: a reduced
 * D-K recipe (1 iteration, coarse mu grid) so a drift-triggered
 * re-synthesis costs one background job, not an offline campaign.
 */
core::AdaptOptions defaultFleetAdaptOptions();

/** Per-board service workload knobs. */
struct ServiceConfig
{
    std::size_t threads = 8;      ///< Server threads per board.
    double ipc_big = 1.5;         ///< Per-thread IPC on a big core.
    double mem_boundness = 0.25;  ///< Memory-time fraction.
};

/** Everything that defines one fleet run. */
struct FleetConfig
{
    int boards = 16;

    /**
     * Shard count (boards are split into contiguous blocks). <= 0
     * derives one shard per board. The shard partition is part of the
     * run's identity; the worker count is not.
     */
    int shards = 0;

    std::uint32_t seed = 1;
    double sim_seconds = 60.0;
    core::Scheme scheme = core::Scheme::kYuktaFull;
    bool supervised = false;

    /** A queued request older than this is in SLO violation. */
    double slo_seconds = 2.0;

    ServiceConfig service;
    ArrivalConfig arrivals;
    AdmissionConfig admission;
    ClusterConfig cluster;

    /**
     * Board-fault schedule; every window must use a board<i> target
     * with an index inside the fleet (the constructor validates).
     */
    fault::FaultPlan faults;

    /**
     * True: watchdog retries for stalled boards, capacity-scaled
     * admission, and cluster targets skip dark or lost boards. False:
     * the fault-blind baseline -- no watchdog, admission keeps filling
     * dark boards, stalled epochs are silently lost.
     */
    bool fault_aware = true;

    /**
     * Unused: nothing in src/ reads it. Kept only for
     * perfbench/traced.cpp, which refuses to run when it is false; a
     * later benchmark change retires it. Not part of canonical().
     */
    bool batch_tick = true;

    /**
     * True (--adapt): every board runs the online adaptation loop on
     * its hardware layer -- RLS system identification alongside the
     * shipped controller, CUSUM drift detection against the shipped
     * model, drift-triggered re-synthesis on the shard pool, and
     * bumpless hot-swap of the refreshed controller. On the plant the
     * model was identified for, the CUSUM never fires and the run is
     * bit-identical to adapt=false, so this is excluded from
     * canonical(); checkpoints record per-board adapter presence and
     * restore refuses a mismatch.
     */
    bool adapt = false;

    /** Adaptation tuning (only read when adapt is set). */
    core::AdaptOptions adapt_options = defaultFleetAdaptOptions();

    /**
     * Attempts the watchdog gives a stalled board per epoch before the
     * epoch is lost (>= 1): a transient hang needs 2, and a persistent
     * one exhausts any number. Each stalled attempt counts a timeout,
     * each retry round a shard retry. Part of the run's identity.
     */
    int watchdog_attempts = 2;

    /**
     * @return a normalized string over every identity-bearing field
     * (batch_tick, adapt and adapt_options excluded; the worker count
     * is not a field). Checkpoints embed it; restore refuses a
     * mismatch.
     */
    std::string canonical() const;
};

/** One board plus its fleet-side bookkeeping. */
struct FleetBoard
{
    /** Adopts @p sys; all bookkeeping starts zeroed. */
    explicit FleetBoard(controllers::MultilayerSystem sys);

    controllers::MultilayerSystem system;

    /** Online adaptation loop (null unless FleetConfig::adapt). */
    std::unique_ptr<core::OnlineAdapter> adapter;

    std::deque<Request> queue;   ///< Oldest first.
    double queued_gi = 0.0;      ///< Sum of remaining demand.
    double last_instr = 0.0;     ///< Retired-GI mark (cumulative).
    double last_energy = 0.0;    ///< Energy mark (J, cumulative).

    // Telemetry the cluster layer reads (EMA alpha 0.3).
    double arrival_gi_ema = 0.0;
    double bips_ema = 0.0;
    double power_ema = 0.0;

    // Per-board outcome accumulators (merged in board order).
    obs::MergeableHistogram latency;
    obs::RunningStat epoch_bips;
    obs::RunningStat epoch_power;
    long long completed = 0;
    double served_gi = 0.0;
    double slo_violation_time = 0.0;

    // Fault-domain state.
    bool down = false;        ///< Inside a crash window (board dark).
    double lost_until = 0.0;  ///< Hung-lost until this sim time.
    long long reboots = 0;    ///< Cold reboots survived.

    // Plant accumulators carried across cold reboots (a fresh board
    // restarts its own counters at zero).
    double carried_energy = 0.0;
    double carried_violation = 0.0;
    double carried_emergency = 0.0;
};

/** Deterministic tally of fleet-level fault handling. */
struct FaultDomainStats
{
    long long crashes = 0;           ///< Crash windows entered.
    long long reboots = 0;           ///< Cold reboots completed.
    long long dropped_requests = 0;  ///< Requests lost to crashes.
    double dropped_gi = 0.0;         ///< Demand lost to crashes.
    long long lost_epochs = 0;       ///< Board-epochs lost to hangs.
    long long degraded_epochs = 0;   ///< Board-epochs at cut capacity.
    long long watchdog_timeouts = 0; ///< Hung-board attempts detected.
    long long shard_retries = 0;     ///< Watchdog retry rounds.

    /** @return canonical JSON object for these counters. */
    std::string toJson() const;

    /** Writes or restores the counters (fleet checkpointing). */
    template <class Io>
    void state(Io& io);
};

/**
 * Fleet-wide adaptation tally, summed over the boards' adapters.
 * Reported next to the wall-clock fields and -- deliberately -- kept
 * out of toJson(false)/digest(): a cache hit vs. a recomputed (but
 * bit-identical) synthesis may differ across worker counts and
 * checkpoint splits, while the simulated trajectory does not.
 */
struct AdaptStats
{
    long long drift_events = 0;  ///< CUSUM trips.
    long long syntheses = 0;     ///< Re-synthesis jobs run.
    long long cache_hits = 0;    ///< Jobs served from the design cache.
    long long swaps = 0;         ///< Hot-swaps installed.

    /** @return canonical JSON object for these counters. */
    std::string toJson() const;
};

/** Deterministic result of one fleet run. */
struct FleetMetrics
{
    int boards = 0;
    int epochs = 0;
    double sim_seconds = 0.0;

    AdmissionStats admission;
    int cluster_rounds = 0;
    long long completed = 0;
    double served_gi = 0.0;

    double energy = 0.0;           ///< Fleet joules.
    double exd = 0.0;              ///< Energy x sim time (J*s).
    double slo_violation_time = 0.0;      ///< Board-seconds past SLO.
    double constraint_violation_time = 0.0;  ///< True P/T cap breaches.
    double emergency_time = 0.0;   ///< Board-seconds of TMU caps.
    double backlog_gi = 0.0;       ///< Demand still queued at the end.

    FaultDomainStats faults;       ///< Fleet-level fault handling.

    obs::MergeableHistogram latency;  ///< Completed-request latency.
    obs::RunningStat board_bips;      ///< Per-board-epoch BIPS.
    obs::RunningStat board_power;     ///< Per-board-epoch power (W).

    // Wall-clock throughput; never part of the digest.
    double wall_seconds = 0.0;
    double board_ticks_per_sec = 0.0;

    // Adaptation tally; reported with the wall fields, never part of
    // the digest (see AdaptStats).
    AdaptStats adapt;

    /**
     * @return the run result as canonical JSON. @p include_wall adds
     * the wall-clock fields; digests always exclude them.
     */
    std::string toJson(bool include_wall) const;

    /** FNV-1a over toJson(false): the run's determinism fingerprint. */
    std::uint64_t digest() const;
};

/** Periodic-checkpoint knobs for FleetSim::run. */
struct CheckpointConfig
{
    /** Write a checkpoint every this many epochs; <= 0 disables. */
    int every_epochs = 0;

    /**
     * Directory receiving fleet-<epoch>.ckpt plus a fleet-latest.ckpt
     * alias (both written atomically). Must exist and be non-empty
     * when every_epochs > 0.
     */
    std::string dir;
};

/**
 * The fleet simulator. Construct once; run() simulates forward from
 * the current epoch (0 for a fresh instance, the checkpointed epoch
 * after restoreCheckpoint), so a restored run continues mid-flight.
 */
class FleetSim
{
  public:
    /**
     * Builds @p cfg.boards board instances from @p artifacts. Board b
     * gets a counter-hashed seed derived from (cfg.seed, b), so the
     * fleet's sensor-noise streams are decorrelated but reproducible.
     * @throws std::invalid_argument on bad knobs or a fault plan with
     * non-board targets / board indices outside the fleet.
     */
    FleetSim(FleetConfig cfg, const core::Artifacts& artifacts);

    /**
     * Runs the fleet from the current epoch to cfg.sim_seconds of
     * simulated time on @p workers pool workers (0/1 = inline),
     * optionally dropping periodic checkpoints per @p ckpt. The
     * result is bit-identical for any worker count, with or without
     * scheduled faults, and across checkpoint/restore splits.
     */
    FleetMetrics run(std::size_t workers,
                     const CheckpointConfig& ckpt = {});

    /**
     * Serializes the full fleet state to @p path: a versioned header
     * (format version, FleetConfig::canonical(), epoch), every
     * subsystem's StateWriter snapshot, and a trailing FNV-1a digest
     * stamp, written atomically via tmp+rename.
     * @throws std::runtime_error when the file cannot be written.
     */
    void saveCheckpoint(const std::string& path);

    /**
     * Restores state written by saveCheckpoint. The snapshot must
     * carry a matching format version and an identical
     * FleetConfig::canonical() (same artifacts assumed); the digest
     * stamp must verify. run() then resumes from the saved epoch.
     * The stamp, version and config are checked before any state is
     * touched; a failure after that (a malformed field, a value that
     * does not fit its member) leaves the fleet partly restored, so a
     * FleetSim whose restore threw must be discarded.
     * @throws std::runtime_error on read failure, digest mismatch,
     * version/config mismatch, or malformed or out-of-range state.
     */
    void restoreCheckpoint(const std::string& path);

    /** Next epoch run() will execute (0 fresh, N after restore). */
    int epoch() const { return epoch_; }

    /** Board access (tests inspect queues and targets). */
    FleetBoard& board(int b) { return *boards_[static_cast<std::size_t>(b)]; }
    int boardCount() const { return static_cast<int>(boards_.size()); }

    /** @return the validated configuration. */
    const FleetConfig& config() const { return cfg_; }

  private:
    FleetConfig cfg_;
    core::Artifacts artifacts_;      ///< Kept for cold reboots.
    platform::AppModel service_app_; ///< Kept for cold reboots.
    std::vector<std::unique_ptr<FleetBoard>> boards_;
    ArrivalGenerator arrivals_;
    AdmissionController admission_;
    ClusterController cluster_;
    bool cluster_supported_ = true;
    int epoch_ = 0;  ///< Next epoch to execute.

    // Per-crash-window transition flags (board went dark / rebooted).
    std::vector<std::uint8_t> crash_entered_;
    std::vector<std::uint8_t> crash_exited_;
    FaultDomainStats fault_stats_;

    /** @return the counter-hashed base seed for board @p b. */
    std::uint32_t boardSeed(int b) const;

    /** @return the saveCheckpoint() file body, digest stamp included. */
    std::string checkpointBody();

    /** Writes or restores all state after the version/config header. */
    template <class Io>
    void state(Io& io);

    /** Applies crash entries and cold reboots due at @p t0. */
    void applyCrashTransitions(int epoch, double t0);

    /** Applies the plant-drift windows in force at @p t0 (serial;
        an exact no-op when the plan schedules no drift). */
    void applyDriftWindows(double t0);

    /**
     * The serial adaptation coordinator, after the shard phase: runs
     * the due re-synthesis jobs on @p workers pool workers, each with
     * max(1, workers / due) threads for its mu sweeps, then installs
     * due hot-swaps in board index order through the bumpless-transfer
     * path.
     */
    void stepAdaptation(std::size_t workers, double t0);

    /**
     * Cold-reboots board @p b in place: a fresh system (through the
     * supervisor ladder) and adapter; the queue, histories and outcome
     * accumulators stay.
     */
    void rebootBoard(int b, int epoch, double t0);

    /** Remaining drain capacity fraction for board @p b at @p t0. */
    double drainScale(int b, double t0) const;

    /**
     * @return the watchdog attempts board @p b's shard worker stalls
     * at @p t0: 0 with no hang window active, 1 for a transient hang
     * (a retry steps it), watchdog_attempts for a persistent one.
     */
    int hangStalls(int b, double t0) const;

    /**
     * Steps one board one control period, then does its EMA/rollup
     * bookkeeping and drains its queue at the rate of work actually
     * retired this period.
     */
    void stepBoard(FleetBoard& fb, double epoch_end,
                   double drain_scale) const;
};

}  // namespace yukta::fleet

#endif  // YUKTA_FLEET_FLEET_H_
