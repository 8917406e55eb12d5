#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/cache.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "runner/pool.h"

namespace yukta::fleet {

using controllers::kControlPeriod;

namespace {

/** EMA smoothing for the cluster-layer telemetry streams. */
constexpr double kEmaAlpha = 0.3;

/** Capacity fraction a degrade window cuts to when magnitude is 0. */
constexpr double kDefaultDegradeScale = 0.5;

/** True-power multiplier a drift window applies when magnitude is 0. */
constexpr double kDefaultDriftScale = 1.8;

/** Bump when the checkpoint layout changes incompatibly.
    v2: per-board online-adaptation state + board drift fields.
    v3: one-line vectors, engines as state words, histogram bounds as
    a fingerprint. */
constexpr std::uint64_t kCheckpointVersion = 3;

/** Body bytes reserved per board before a checkpoint is encoded. */
constexpr std::size_t kCheckpointBytesPerBoard = 16 * 1024;

/** All boards share these latency bucket bounds so rollups merge. */
obs::MergeableHistogram
latencyHistogram()
{
    // 10 ms .. 1000 s, 9 buckets per decade: resolves sub-period
    // latencies and multi-minute pathological backlogs alike.
    return obs::MergeableHistogram::logSpaced(0.01, 1000.0, 9);
}

/** @return @p v as the 16-hex-digit digest stamp format. */
std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * @return @p cfg after FleetSim's own checks, which run before any
 * member is built from it.
 * @throws std::invalid_argument on bad knobs or fault targets.
 */
FleetConfig
validated(FleetConfig cfg)
{
    if (cfg.boards <= 0) {
        throw std::invalid_argument("FleetSim: boards must be positive");
    }
    if (!(cfg.sim_seconds > 0.0)) {
        throw std::invalid_argument(
            "FleetSim: sim_seconds must be positive");
    }
    if (cfg.watchdog_attempts < 1) {
        throw std::invalid_argument(
            "FleetSim: watchdog_attempts must be >= 1");
    }
    if (!(cfg.watchdog_timeout_s > 0.0) || cfg.watchdog_backoff_s < 0.0) {
        throw std::invalid_argument(
            "FleetSim: watchdog timeout must be positive and backoff "
            "non-negative");
    }
    for (const fault::FaultWindow& w : cfg.faults.windows) {
        if (w.target != fault::FaultTarget::kBoard) {
            throw std::invalid_argument(
                "FleetSim: fleet fault plans take board<i> targets "
                "only (got '" +
                fault::faultTargetId(w.target) + "')");
        }
        if (w.board < 0 || w.board >= cfg.boards) {
            throw std::invalid_argument(
                "FleetSim: fault targets board" +
                std::to_string(w.board) + " but the fleet has " +
                std::to_string(cfg.boards) + " boards");
        }
    }
    return cfg;
}

/** Atomically writes checkpoint @p body to @p path. */
void
writeCheckpoint(const std::string& path, const std::string& body)
{
    if (!core::atomicWriteFile(path, body)) {
        throw std::runtime_error("FleetSim: cannot write checkpoint " +
                                 path);
    }
}

}  // namespace

core::AdaptOptions
defaultFleetAdaptOptions()
{
    core::AdaptOptions opt;
    // Reduced synthesis recipe: one D-K pass over a coarse mu grid.
    // An online re-synthesis must cost a background job, not the
    // offline campaign's full budget.
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    // Closed-loop drift detection: the controller actively rejects a
    // plant shift, so the shipped model's prediction error shows up as
    // repeated multi-sigma bursts rather than a sustained offset, and
    // some channels run several training-sigma hot with no drift at
    // all. The calibration window (below) rescales each channel to its
    // measured closed-loop level, after which slack/threshold work in
    // honest units: nominal statistic peaks < 9 over 10 minutes while
    // a >=1.8x power shift crosses 20 within seconds to ~35 s.
    opt.cusum.slack_sigma = 2.5;
    opt.cusum.threshold = 20.0;
    // Boards start from an idle state far from the training operating
    // point; the first ~15 s of prediction error is startup transient,
    // not drift, so arm the detector only after it has died out, then
    // spend 30 s measuring the nominal closed-loop error level.
    opt.warmup_ticks = 40;
    opt.calibration_ticks = 60;
    // Give the RLS a full minute on the drifted plant before the
    // model is snapshotted: the re-synthesized controller is only as
    // good as the snapshot, and the closed loop explores the drifted
    // dynamics slowly.
    opt.settle_ticks = 120;
    return opt;
}

std::string
FleetConfig::canonical() const
{
    std::ostringstream os;
    os << "fleet_v2;boards=" << boards << ";shards=" << shards
       << ";seed=" << seed
       << ";sim=" << obs::canonicalNumber(sim_seconds)
       << ";scheme=" << static_cast<int>(scheme)
       << ";sup=" << (supervised ? 1 : 0)
       << ";slo=" << obs::canonicalNumber(slo_seconds)
       << ";svc=" << service.threads << ","
       << obs::canonicalNumber(service.ipc_big) << ","
       << obs::canonicalNumber(service.mem_boundness)
       << ";arr=" << obs::canonicalNumber(arrivals.profile.base_rate)
       << "," << obs::canonicalNumber(arrivals.profile.amplitude) << ","
       << obs::canonicalNumber(arrivals.profile.period_seconds) << ","
       << obs::canonicalNumber(arrivals.profile.phase) << ","
       << obs::canonicalNumber(arrivals.mean_demand_gi);
    for (double w : arrivals.board_weight) {
        os << "," << obs::canonicalNumber(w);
    }
    os << ";adm=" << (admission.enabled ? 1 : 0) << ","
       << obs::canonicalNumber(admission.queue_capacity_gi) << ","
       << admission.max_hops
       << ";clu=" << (cluster.enabled ? 1 : 0) << ","
       << cluster.period_epochs << ","
       << obs::canonicalNumber(cluster.power_budget_w) << ","
       << obs::canonicalNumber(cluster.floor_fraction)
       << ";aware=" << (fault_aware ? 1 : 0)
       << ";wd=" << watchdog_attempts
       << ";faults=" << faults.canonical();
    return os.str();
}

std::string
FaultDomainStats::toJson() const
{
    std::ostringstream os;
    os << "{\"crashes\":" << crashes << ",\"reboots\":" << reboots
       << ",\"dropped_requests\":" << dropped_requests
       << ",\"dropped_gi\":" << obs::canonicalNumber(dropped_gi)
       << ",\"lost_epochs\":" << lost_epochs
       << ",\"degraded_epochs\":" << degraded_epochs
       << ",\"watchdog_timeouts\":" << watchdog_timeouts
       << ",\"shard_retries\":" << shard_retries << "}";
    return os.str();
}

template <class Io>
void
FaultDomainStats::state(Io& io)
{
    io.i64("fd.crashes", crashes);
    io.i64("fd.reboots", reboots);
    io.i64("fd.dropped_requests", dropped_requests);
    io.f64("fd.dropped_gi", dropped_gi);
    io.i64("fd.lost_epochs", lost_epochs);
    io.i64("fd.degraded_epochs", degraded_epochs);
    io.i64("fd.watchdog_timeouts", watchdog_timeouts);
    io.i64("fd.shard_retries", shard_retries);
}

template void FaultDomainStats::state(obs::StateWriter&);
template void FaultDomainStats::state(obs::StateReader&);

std::string
AdaptStats::toJson() const
{
    std::ostringstream os;
    os << "{\"drift_events\":" << drift_events
       << ",\"syntheses\":" << syntheses
       << ",\"cache_hits\":" << cache_hits << ",\"swaps\":" << swaps
       << "}";
    return os.str();
}

FleetBoard::FleetBoard(controllers::MultilayerSystem sys)
    : system(std::move(sys)), latency(latencyHistogram())
{
}

FleetSim::FleetSim(FleetConfig cfg, const core::Artifacts& artifacts)
    : cfg_(validated(std::move(cfg))), artifacts_(artifacts),
      service_app_(platform::AppCatalog::makeServiceApp(
          cfg_.service.threads, cfg_.service.ipc_big,
          cfg_.service.mem_boundness)),
      arrivals_(cfg_.arrivals,
                static_cast<std::uint64_t>(cfg_.seed) ^
                    0x666c6565745f7631ull),  // "fleet_v1"
      admission_(cfg_.admission, cfg_.boards),
      cluster_(cfg_.cluster, artifacts.cfg, cfg_.boards)
{
    crash_entered_.assign(cfg_.faults.windows.size(), 0);
    crash_exited_.assign(cfg_.faults.windows.size(), 0);

    boards_.reserve(static_cast<std::size_t>(cfg_.boards));
    for (int b = 0; b < cfg_.boards; ++b) {
        controllers::MultilayerSystem sys = core::makeSystem(
            cfg_.scheme, artifacts_, platform::Workload(service_app_),
            boardSeed(b));
        if (cfg_.supervised) {
            sys.enableSupervisor();
        }
        auto fb = std::make_unique<FleetBoard>(std::move(sys));
        if (cfg_.adapt) {
            fb->adapter =
                core::makeHwAdapter(artifacts_, cfg_.adapt_options);
            fb->adapter->setTraceSink(fb->system.traceSink());
        }
        boards_.push_back(std::move(fb));
    }
}

std::uint32_t
FleetSim::boardSeed(int b) const
{
    // Counter-hashed per-board seed: decorrelated sensor noise,
    // independent of every other config knob.
    return static_cast<std::uint32_t>(
        mix64(static_cast<std::uint64_t>(cfg_.seed) ^
              (static_cast<std::uint64_t>(b) * 0x9e3779b97f4a7c15ull)));
}

void
FleetSim::applyCrashTransitions(int epoch, double t0)
{
    for (std::size_t i = 0; i < cfg_.faults.windows.size(); ++i) {
        const fault::FaultWindow& w = cfg_.faults.windows[i];
        if (w.kind != fault::FaultKind::kBoardCrash) {
            continue;
        }
        FleetBoard& fb = *boards_[static_cast<std::size_t>(w.board)];
        if (w.active(t0) && crash_entered_[i] == 0) {
            crash_entered_[i] = 1;
            ++fault_stats_.crashes;
            fb.down = true;
            fb.bips_ema = 0.0;
            fb.power_ema = 0.0;
            if (!(w.magnitude > 0.0)) {
                // Default crash loses the in-memory queue; a positive
                // magnitude models a persisted queue that survives.
                fault_stats_.dropped_requests +=
                    static_cast<long long>(fb.queue.size());
                fault_stats_.dropped_gi += fb.queued_gi;
                fb.queue.clear();
                fb.queued_gi = 0.0;
            }
        }
        if (crash_entered_[i] != 0 && crash_exited_[i] == 0 &&
            t0 >= w.start + w.duration) {
            crash_exited_[i] = 1;
            rebootBoard(w.board, epoch, t0);
        }
    }
}

void
FleetSim::rebootBoard(int b, int epoch, double t0)
{
    FleetBoard& fb = *boards_[static_cast<std::size_t>(b)];
    // Bank the dead instance's accumulators: the replacement board
    // restarts its own counters at zero.
    fb.carried_energy += fb.system.board().energy();
    fb.carried_violation += fb.system.board().constraintViolationTime();
    fb.carried_emergency += fb.system.board().emergencyTime();
    ++fb.reboots;
    ++fault_stats_.reboots;

    // Reboot-hashed seed: the replacement is a fresh machine with a
    // fresh (but reproducible) sensor-noise stream.
    const auto seed = static_cast<std::uint32_t>(
        mix64(static_cast<std::uint64_t>(boardSeed(b)) ^
              (static_cast<std::uint64_t>(fb.reboots) *
               0x9e3779b97f4a7c15ull)));
    controllers::MultilayerSystem sys = core::makeSystem(
        cfg_.scheme, artifacts_, platform::Workload(service_app_), seed);
    if (cfg_.supervised) {
        sys.enableSupervisor();
        // Cold boots re-enter service through the supervisor ladder:
        // kSafe first, then earn the way back to kNominal.
        sys.supervisor()->coldBoot(epoch, t0,
                                   "board" + std::to_string(b) +
                                       " cold reboot");
    }

    auto fresh = std::make_unique<FleetBoard>(std::move(sys));
    FleetBoard& nf = *fresh;
    nf.queue = std::move(fb.queue);
    nf.queued_gi = fb.queued_gi;
    nf.arrival_gi_ema = fb.arrival_gi_ema;
    nf.latency = fb.latency;
    nf.epoch_bips = fb.epoch_bips;
    nf.epoch_power = fb.epoch_power;
    nf.completed = fb.completed;
    nf.served_gi = fb.served_gi;
    nf.slo_violation_time = fb.slo_violation_time;
    nf.lost_until = fb.lost_until;
    nf.reboots = fb.reboots;
    nf.carried_energy = fb.carried_energy;
    nf.carried_violation = fb.carried_violation;
    nf.carried_emergency = fb.carried_emergency;
    // Overlapping crash windows keep the replacement dark too.
    for (const fault::FaultWindow& w : cfg_.faults.windows) {
        if (w.kind == fault::FaultKind::kBoardCrash && w.board == b &&
            w.active(t0)) {
            nf.down = true;
        }
    }
    if (cfg_.adapt) {
        // The replacement is a fresh machine: its adaptation loop
        // re-learns from the shipped model, like the controllers
        // restart from the shipped design. The dead instance's
        // counters are not carried (they describe a different board).
        nf.adapter = core::makeHwAdapter(artifacts_, cfg_.adapt_options);
        nf.adapter->setTraceSink(nf.system.traceSink());
    }
    boards_[static_cast<std::size_t>(b)] = std::move(fresh);
}

void
FleetSim::applyDriftWindows(double t0)
{
    bool any = false;
    for (const fault::FaultWindow& w : cfg_.faults.windows) {
        any = any || w.kind == fault::FaultKind::kBoardDrift;
    }
    if (!any) {
        return;
    }
    for (int b = 0; b < cfg_.boards; ++b) {
        double scale = 1.0;
        for (const fault::FaultWindow& w : cfg_.faults.windows) {
            if (w.kind != fault::FaultKind::kBoardDrift ||
                w.board != b || !w.active(t0)) {
                continue;
            }
            scale *= w.magnitude > 0.0 ? w.magnitude : kDefaultDriftScale;
        }
        boards_[static_cast<std::size_t>(b)]
            ->system.board()
            .setPowerDriftScale(scale);
    }
}

void
FleetSim::stepAdaptation(std::size_t workers, double t0)
{
    // Dispatch due re-syntheses on the pool. Each task is board-local
    // and deterministic, so the outcome is independent of worker count
    // and scheduling. The run's workers are split evenly between the
    // due syntheses for their mu sweeps (with the one-round D-K
    // recipe, only the certification sweep); a lone one runs on this
    // thread with all of them. These follow the run's workers, not
    // the hardware threads the offline design flow uses (DESIGN.md
    // §16). A failed synthesis disables that board's adapter
    // (kDisabled) without throwing, never the run.
    std::vector<core::OnlineAdapter*> due;
    for (const auto& fbp : boards_) {
        FleetBoard& fb = *fbp;
        if (fb.adapter != nullptr && !fb.down &&
            fb.adapter->synthesisDue()) {
            due.push_back(fb.adapter.get());
        }
    }
    if (!due.empty()) {
        const std::size_t share =
            std::max<std::size_t>(1, workers / due.size());
        std::vector<runner::Task> tasks;
        for (core::OnlineAdapter* adapter : due) {
            tasks.push_back([adapter, share](const runner::CancelToken&) {
                adapter->synthesize(share);
            });
        }
        runner::runOnPool(tasks, workers);
    }

    // Install due swaps serially in board index order, through the
    // bumpless-transfer + supervisor-ladder path.
    for (const auto& fbp : boards_) {
        FleetBoard& fb = *fbp;
        if (fb.adapter == nullptr || fb.down || t0 < fb.lost_until ||
            !fb.adapter->swapDue()) {
            continue;
        }
        if (fb.system.hotSwapHwRuntime(fb.adapter->makePendingRuntime())) {
            fb.adapter->noteSwapped();
        } else {
            // The arrangement has no SSV hardware layer to swap
            // (heuristic / LQG / monolithic): adaptation stands down.
            fb.adapter.reset();
        }
    }
}

double
FleetSim::drainScale(int b, double t0) const
{
    double scale = 1.0;
    for (const fault::FaultWindow& w : cfg_.faults.windows) {
        if (w.kind != fault::FaultKind::kBoardDegrade || w.board != b ||
            !w.active(t0)) {
            continue;
        }
        const double mag =
            w.magnitude > 0.0 ? w.magnitude : kDefaultDegradeScale;
        scale = std::min(scale, mag);
    }
    return scale;
}

bool
FleetSim::hangBlocks(int b, double t0, int attempt) const
{
    for (const fault::FaultWindow& w : cfg_.faults.windows) {
        if (w.kind != fault::FaultKind::kShardHang || w.board != b ||
            !w.active(t0)) {
            continue;
        }
        if (attempt < 0) {
            return true;  // Fault-blind: the stall is never noticed.
        }
        if (w.magnitude > 0.0) {
            return true;  // Persistent: stalls every attempt.
        }
        if (attempt == 0) {
            return true;  // Transient: resolves on the first retry.
        }
    }
    return false;
}

bool
FleetSim::anyHangActive(double t0) const
{
    for (const fault::FaultWindow& w : cfg_.faults.windows) {
        if (w.kind == fault::FaultKind::kShardHang && w.active(t0)) {
            return true;
        }
    }
    return false;
}

std::vector<double>
FleetSim::capacityScale(double t0) const
{
    std::vector<double> scale(boards_.size(), 1.0);
    for (std::size_t b = 0; b < boards_.size(); ++b) {
        const FleetBoard& fb = *boards_[b];
        if (fb.down || t0 < fb.lost_until) {
            scale[b] = 0.0;  // Dark or lost: advertises nothing.
            continue;
        }
        scale[b] = drainScale(static_cast<int>(b), t0);
    }
    return scale;
}

void
FleetSim::stepBoard(FleetBoard& fb, double epoch_end,
                    double drain_scale) const
{
    fb.system.stepPeriod();

    const double instr = fb.system.board().perfCounters().total();
    const double served = std::max(0.0, instr - fb.last_instr);
    fb.last_instr = instr;
    const double bips = served / kControlPeriod;

    const double energy = fb.system.board().energy();
    const double power =
        std::max(0.0, energy - fb.last_energy) / kControlPeriod;
    fb.last_energy = energy;

    fb.bips_ema = kEmaAlpha * bips + (1.0 - kEmaAlpha) * fb.bips_ema;
    fb.power_ema = kEmaAlpha * power + (1.0 - kEmaAlpha) * fb.power_ema;
    fb.epoch_bips.add(bips);
    fb.epoch_power.add(power);

    if (fb.adapter != nullptr) {
        // Feed the adaptation loop the same signals the hardware
        // layer was identified on (see the training campaign): the
        // requested operating point + OS policy as inputs, the sensed
        // plant response as outputs. Board-local and deterministic,
        // so this runs inside the parallel shard phase.
        const platform::Board& board = fb.system.board();
        const platform::HardwareInputs& req = board.requestedHardware();
        const platform::PlacementPolicy& pol = board.placementPolicy();
        const double thr_big = std::min(
            pol.threads_big,
            static_cast<double>(board.threadsRunning()));
        const linalg::Vector u{static_cast<double>(req.big_cores),
                               static_cast<double>(req.little_cores),
                               req.freq_big,
                               req.freq_little,
                               thr_big,
                               pol.tpc_big,
                               pol.tpc_little};
        const linalg::Vector y{bips, board.sensedPowerBig(),
                               board.sensedPowerLittle(),
                               board.sensedTemperature()};
        fb.adapter->observe(u, y);
    }

    // Drain the queue at the rate of work actually retired, cut to
    // the degraded service fraction. Capacity beyond the backlog is
    // idle service (not banked).
    double budget = served * drain_scale;
    while (!fb.queue.empty() && budget > 0.0) {
        Request& r = fb.queue.front();
        const double take = std::min(budget, r.remaining_gi);
        r.remaining_gi -= take;
        budget -= take;
        fb.served_gi += take;
        fb.queued_gi = std::max(0.0, fb.queued_gi - take);
        if (r.remaining_gi <= 1e-12) {
            // Completion is booked at the epoch boundary: the drain
            // model has no sub-period timeline, and a conservative
            // (late) completion time keeps the latency rollup honest.
            fb.latency.observe(epoch_end - r.arrival_time);
            ++fb.completed;
            fb.queue.pop_front();
        }
    }
}

FleetMetrics
FleetSim::run(std::size_t workers, const CheckpointConfig& ckpt)
{
    const obs::Stopwatch wall;
    if (ckpt.every_epochs > 0 && ckpt.dir.empty()) {
        throw std::invalid_argument(
            "FleetSim: checkpointing needs a directory");
    }
    const int epochs = static_cast<int>(
        std::ceil(cfg_.sim_seconds / kControlPeriod - 1e-9));

    const int num_boards = cfg_.boards;
    const int num_shards =
        cfg_.shards <= 0 ? num_boards : std::min(cfg_.shards, num_boards);

    for (int epoch = epoch_; epoch < epochs; ++epoch) {
        const double t0 = static_cast<double>(epoch) * kControlPeriod;
        const double epoch_end = t0 + kControlPeriod;

        // --- Fault domain: crash entries and cold reboots. ---
        applyCrashTransitions(epoch, t0);
        applyDriftWindows(t0);

        // --- Serial coordinator phase (board index order). ---
        std::vector<double> scale;
        const std::vector<double>* scale_ptr = nullptr;
        if (cfg_.fault_aware && !cfg_.faults.empty()) {
            scale = capacityScale(t0);
            scale_ptr = &scale;
        }
        std::vector<double> projected(
            static_cast<std::size_t>(num_boards), 0.0);
        for (int b = 0; b < num_boards; ++b) {
            projected[static_cast<std::size_t>(b)] =
                boards_[static_cast<std::size_t>(b)]->queued_gi;
        }
        for (int b = 0; b < num_boards; ++b) {
            FleetBoard& origin = *boards_[static_cast<std::size_t>(b)];
            const std::vector<Request> reqs =
                arrivals_.epochArrivals(b, epoch, t0, kControlPeriod);
            double offered_gi = 0.0;
            for (const Request& r : reqs) {
                offered_gi += r.demand_gi;
                const int dest =
                    admission_.route(r, projected, scale_ptr);
                if (dest >= 0) {
                    FleetBoard& fb =
                        *boards_[static_cast<std::size_t>(dest)];
                    fb.queue.push_back(r);
                    fb.queued_gi += r.demand_gi;
                }
            }
            origin.arrival_gi_ema = kEmaAlpha * offered_gi +
                                    (1.0 - kEmaAlpha) *
                                        origin.arrival_gi_ema;
        }

        if (cluster_supported_ && cluster_.due(epoch)) {
            std::vector<BoardTelemetry> telemetry;
            telemetry.reserve(boards_.size());
            for (const auto& fb : boards_) {
                BoardTelemetry t;
                t.queued_gi = fb->queued_gi;
                t.arrival_gi_ema = fb->arrival_gi_ema;
                t.bips_ema = fb->bips_ema;
                t.power_ema = fb->power_ema;
                telemetry.push_back(t);
            }
            const std::vector<linalg::Vector> targets =
                cluster_.computeTargets(telemetry);
            bool applied = true;
            for (std::size_t b = 0; b < boards_.size(); ++b) {
                if (scale_ptr != nullptr && (*scale_ptr)[b] <= 0.0) {
                    continue;  // Aware mode: skip dark/lost boards.
                }
                applied =
                    boards_[b]->system.holdHwTargets(targets[b]) &&
                    applied;
            }
            if (applied) {
                cluster_.noteRound();
            } else {
                // Heuristic / monolithic arrangements have no target
                // hook; the fleet then leaves boards self-governed.
                cluster_supported_ = false;
            }
        }

        // Tally degraded service (serial, deterministic).
        for (int b = 0; b < num_boards; ++b) {
            const FleetBoard& fb = *boards_[static_cast<std::size_t>(b)];
            if (!fb.down && t0 >= fb.lost_until &&
                drainScale(b, t0) < 1.0) {
                ++fault_stats_.degraded_epochs;
            }
        }

        // --- Parallel shared-nothing shard phase. ---
        // Which boards stepped is recorded by the shards themselves
        // (disjoint writers, read after join); the watchdog decides
        // from these flags, never from wall-clock task outcomes, so
        // faulted runs stay bit-identical for any worker count.
        std::vector<char> stepped(static_cast<std::size_t>(num_boards),
                                  0);
        for (int b = 0; b < num_boards; ++b) {
            FleetBoard& fb = *boards_[static_cast<std::size_t>(b)];
            if (fb.down) {
                stepped[static_cast<std::size_t>(b)] = 1;  // Dark.
            } else if (t0 < fb.lost_until) {
                stepped[static_cast<std::size_t>(b)] = 1;
                ++fault_stats_.lost_epochs;  // Known-lost to a hang.
            }
        }

        const auto makeTasks = [&](int attempt, bool block_on_hang) {
            std::vector<runner::Task> tasks;
            for (int s = 0; s < num_shards; ++s) {
                // Contiguous block partition: shard s owns [lo, hi).
                const int lo = static_cast<int>(
                    static_cast<long long>(s) * num_boards / num_shards);
                const int hi = static_cast<int>(static_cast<long long>(
                                                    s + 1) *
                                                num_boards / num_shards);
                bool needed = false;
                for (int b = lo; b < hi; ++b) {
                    needed =
                        needed || stepped[static_cast<std::size_t>(b)] == 0;
                }
                if (!needed) {
                    continue;
                }
                tasks.push_back([this, lo, hi, t0, epoch_end, attempt,
                                 block_on_hang, &stepped](
                                    const runner::CancelToken& token) {
                    bool hung = false;
                    for (int b = lo; b < hi; ++b) {
                        if (stepped[static_cast<std::size_t>(b)] != 0) {
                            continue;
                        }
                        if (hangBlocks(b, t0, attempt)) {
                            hung = true;
                            continue;
                        }
                        stepBoard(*boards_[static_cast<std::size_t>(b)],
                                  epoch_end, drainScale(b, t0));
                        stepped[static_cast<std::size_t>(b)] = 1;
                    }
                    if (hung && block_on_hang) {
                        // Model the stall: this worker wedges until
                        // the watchdog deadline fires.
                        while (!token.expired()) {
                            std::this_thread::yield();
                        }
                    }
                });
            }
            return tasks;
        };
        const auto runShards = [&](const std::vector<runner::Task>& tasks,
                                   double deadline) {
            const std::vector<runner::TaskOutcome> outcomes =
                runner::runOnPool(tasks, workers, deadline);
            for (const runner::TaskOutcome& o : outcomes) {
                if (o.status == runner::TaskOutcome::Status::kError) {
                    throw std::runtime_error(
                        "FleetSim: shard failed: " + o.error);
                }
            }
        };

        if (cfg_.fault_aware) {
            for (int attempt = 0; attempt < cfg_.watchdog_attempts;
                 ++attempt) {
                // The deadline exists only when a hang can fire; a
                // healthy epoch runs un-timed, exactly as before.
                const double deadline =
                    anyHangActive(t0)
                        ? cfg_.watchdog_timeout_s +
                              static_cast<double>(attempt) *
                                  cfg_.watchdog_backoff_s
                        : 0.0;
                const std::vector<runner::Task> tasks =
                    makeTasks(attempt, deadline > 0.0);
                if (tasks.empty()) {
                    break;
                }
                runShards(tasks, deadline);
                long long hung_now = 0;
                for (int b = 0; b < num_boards; ++b) {
                    if (stepped[static_cast<std::size_t>(b)] == 0 &&
                        hangBlocks(b, t0, attempt)) {
                        ++hung_now;
                    }
                }
                fault_stats_.watchdog_timeouts += hung_now;
                if (hung_now == 0) {
                    break;
                }
                if (attempt + 1 < cfg_.watchdog_attempts) {
                    ++fault_stats_.shard_retries;
                }
            }
            // Attempts exhausted: the epoch is lost for any board
            // still unstepped; a persistent hang marks the board lost
            // for the rest of its window so routing moves away.
            for (int b = 0; b < num_boards; ++b) {
                if (stepped[static_cast<std::size_t>(b)] != 0) {
                    continue;
                }
                FleetBoard& fb = *boards_[static_cast<std::size_t>(b)];
                ++fault_stats_.lost_epochs;
                for (const fault::FaultWindow& w :
                     cfg_.faults.windows) {
                    if (w.kind == fault::FaultKind::kShardHang &&
                        w.board == b && w.active(t0) &&
                        w.magnitude > 0.0) {
                        fb.lost_until = std::max(
                            fb.lost_until, w.start + w.duration);
                    }
                }
            }
        } else {
            // Fault-blind: no deadline, no retry. A hung board's
            // epoch is silently lost and nothing routes around it.
            runShards(makeTasks(-1, false), 0.0);
            for (int b = 0; b < num_boards; ++b) {
                if (stepped[static_cast<std::size_t>(b)] == 0) {
                    ++fault_stats_.lost_epochs;
                }
            }
        }

        // --- Serial adaptation coordinator: syntheses + swaps. ---
        if (cfg_.adapt) {
            stepAdaptation(workers, t0);
        }

        // --- Serial SLO accrual: dark and hung boards age too. ---
        for (int b = 0; b < num_boards; ++b) {
            FleetBoard& fb = *boards_[static_cast<std::size_t>(b)];
            if (!fb.queue.empty() &&
                epoch_end - fb.queue.front().arrival_time >
                    cfg_.slo_seconds) {
                fb.slo_violation_time += kControlPeriod;
            }
        }

        epoch_ = epoch + 1;
        if (ckpt.every_epochs > 0 && epoch_ < epochs &&
            epoch_ % ckpt.every_epochs == 0) {
            const std::string body = checkpointBody();
            writeCheckpoint(
                ckpt.dir + "/fleet-" + std::to_string(epoch_) + ".ckpt",
                body);
            writeCheckpoint(ckpt.dir + "/fleet-latest.ckpt", body);
        }
    }
    epoch_ = epochs;

    // --- Deterministic rollup merge (board index order). ---
    FleetMetrics m;
    m.boards = num_boards;
    m.epochs = epochs;
    m.sim_seconds = static_cast<double>(epochs) * kControlPeriod;
    m.latency = latencyHistogram();
    for (const auto& fb : boards_) {
        m.latency.merge(fb->latency);
        m.board_bips.merge(fb->epoch_bips);
        m.board_power.merge(fb->epoch_power);
        m.completed += fb->completed;
        m.served_gi += fb->served_gi;
        m.energy += fb->carried_energy + fb->system.board().energy();
        m.slo_violation_time += fb->slo_violation_time;
        m.constraint_violation_time +=
            fb->carried_violation +
            fb->system.board().constraintViolationTime();
        m.emergency_time +=
            fb->carried_emergency + fb->system.board().emergencyTime();
        m.backlog_gi += fb->queued_gi;
        if (fb->adapter != nullptr) {
            m.adapt.drift_events += fb->adapter->driftEvents();
            m.adapt.syntheses += fb->adapter->syntheses();
            m.adapt.cache_hits += fb->adapter->cacheHits();
            m.adapt.swaps += fb->adapter->swaps();
        }
    }
    m.exd = m.energy * m.sim_seconds;
    m.admission = admission_.stats();
    m.cluster_rounds = cluster_.rounds();
    m.faults = fault_stats_;

    m.wall_seconds = wall.seconds();
    m.board_ticks_per_sec =
        m.wall_seconds > 0.0
            ? static_cast<double>(num_boards) *
                  static_cast<double>(epochs) / m.wall_seconds
            : 0.0;
    return m;
}

void
FleetSim::saveCheckpoint(const std::string& path)
{
    writeCheckpoint(path, checkpointBody());
}

std::string
FleetSim::checkpointBody()
{
    obs::StateWriter w(kCheckpointBytesPerBoard * boards_.size());
    w.u64("ckpt.version", kCheckpointVersion);
    w.str("ckpt.config", cfg_.canonical());
    state(w);
    std::string body = w.take();
    body += "ckpt.digest=" + hex64(obs::fnv1a(body)) + "\n";
    return body;
}

template <class Io>
void
FleetSim::state(Io& io)
{
    io.u64("ckpt.epoch", epoch_);
    io.boolean("ckpt.cluster_supported", cluster_supported_);
    admission_.state(io);
    cluster_.state(io);
    fault_stats_.state(io);
    std::vector<std::uint64_t> entered(crash_entered_.begin(),
                                       crash_entered_.end());
    std::vector<std::uint64_t> exited(crash_exited_.begin(),
                                      crash_exited_.end());
    io.u64vec("ckpt.crash_entered", entered);
    io.u64vec("ckpt.crash_exited", exited);
    if constexpr (Io::kLoading) {
        if (entered.size() != cfg_.faults.windows.size() ||
            exited.size() != cfg_.faults.windows.size()) {
            throw std::runtime_error(
                "FleetSim: checkpoint fault-window count mismatch");
        }
        crash_entered_.assign(entered.begin(), entered.end());
        crash_exited_.assign(exited.begin(), exited.end());
    }
    io.expect("ckpt.boards", boards_.size());
    for (const auto& fbp : boards_) {
        FleetBoard& fb = *fbp;
        io.count("fb.queue.n", fb.queue);
        for (Request& q : fb.queue) {
            io.f64("fb.q.arrival", q.arrival_time);
            io.f64("fb.q.demand", q.demand_gi);
            io.f64("fb.q.remaining", q.remaining_gi);
            io.i64("fb.q.origin", q.origin);
        }
        io.f64("fb.queued_gi", fb.queued_gi);
        io.f64("fb.last_instr", fb.last_instr);
        io.f64("fb.last_energy", fb.last_energy);
        io.f64("fb.arrival_gi_ema", fb.arrival_gi_ema);
        io.f64("fb.bips_ema", fb.bips_ema);
        io.f64("fb.power_ema", fb.power_ema);
        fb.latency.state(io);
        fb.epoch_bips.state(io);
        fb.epoch_power.state(io);
        io.i64("fb.completed", fb.completed);
        io.f64("fb.served_gi", fb.served_gi);
        io.f64("fb.slo_violation_time", fb.slo_violation_time);
        io.boolean("fb.down", fb.down);
        io.f64("fb.lost_until", fb.lost_until);
        io.i64("fb.reboots", fb.reboots);
        io.f64("fb.carried_energy", fb.carried_energy);
        io.f64("fb.carried_violation", fb.carried_violation);
        io.f64("fb.carried_emergency", fb.carried_emergency);
        // Adapter state precedes the system snapshot: restore must
        // re-install any swapped hardware runtime *before* loading the
        // system so the controller state sizes match the stream.
        io.expect("fb.adapt", fb.adapter != nullptr,
                  "restore with the same --adapt setting it was saved "
                  "with");
        if (fb.adapter != nullptr) {
            fb.adapter->state(io);
            if constexpr (Io::kLoading) {
                if (fb.adapter->hasInstalledController() &&
                    !fb.system.installHwRuntime(
                        fb.adapter->makeInstalledRuntime())) {
                    throw std::runtime_error(
                        "FleetSim: checkpoint carries a swapped hardware "
                        "controller but the scheme cannot install one");
                }
            }
        }
        fb.system.state(io);
    }
}

void
FleetSim::restoreCheckpoint(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        throw std::runtime_error("FleetSim: cannot read checkpoint " +
                                 path);
    }
    const std::streamoff size = in.tellg();
    if (size < 0) {
        throw std::runtime_error("FleetSim: cannot size checkpoint " +
                                 path);
    }
    std::string text(static_cast<std::size_t>(size), '\0');
    in.seekg(0);
    if (!in.read(text.data(), size)) {
        throw std::runtime_error("FleetSim: cannot read checkpoint " +
                                 path);
    }

    const std::string_view tag = "ckpt.digest=";
    const std::size_t p = text.rfind(tag);
    if (p == std::string::npos) {
        throw std::runtime_error(
            "FleetSim: checkpoint has no digest stamp: " + path);
    }
    std::string_view stamp = std::string_view(text).substr(p + tag.size());
    while (!stamp.empty() &&
           (stamp.back() == '\n' || stamp.back() == '\r')) {
        stamp.remove_suffix(1);
    }
    if (stamp != hex64(obs::fnv1a(std::string_view(text).substr(0, p)))) {
        throw std::runtime_error(
            "FleetSim: checkpoint digest mismatch (corrupt or "
            "truncated): " +
            path);
    }
    text.resize(p);

    obs::StateReader r(std::move(text));
    const std::uint64_t version = r.u64("ckpt.version");
    if (version != kCheckpointVersion) {
        throw std::runtime_error(
            "FleetSim: unsupported checkpoint version " +
            std::to_string(version) + " (expected " +
            std::to_string(kCheckpointVersion) + ")");
    }
    const std::string config = r.str("ckpt.config");
    if (config != cfg_.canonical()) {
        throw std::runtime_error(
            "FleetSim: checkpoint config mismatch:\n  checkpoint: " +
            config + "\n  runtime:    " + cfg_.canonical());
    }
    state(r);
    if (!r.atEnd()) {
        throw std::runtime_error(
            "FleetSim: trailing checkpoint state in " + path);
    }
}

std::string
FleetMetrics::toJson(bool include_wall) const
{
    std::ostringstream os;
    os << "{\"boards\":" << boards << ",\"epochs\":" << epochs
       << ",\"sim_seconds\":" << obs::canonicalNumber(sim_seconds)
       << ",\"admission\":" << admission.toJson()
       << ",\"cluster_rounds\":" << cluster_rounds
       << ",\"completed\":" << completed
       << ",\"served_gi\":" << obs::canonicalNumber(served_gi)
       << ",\"energy\":" << obs::canonicalNumber(energy)
       << ",\"exd\":" << obs::canonicalNumber(exd)
       << ",\"slo_violation_time\":"
       << obs::canonicalNumber(slo_violation_time)
       << ",\"constraint_violation_time\":"
       << obs::canonicalNumber(constraint_violation_time)
       << ",\"emergency_time\":" << obs::canonicalNumber(emergency_time)
       << ",\"backlog_gi\":" << obs::canonicalNumber(backlog_gi)
       << ",\"faults\":" << faults.toJson()
       << ",\"latency\":" << latency.toJson()
       << ",\"board_bips\":" << board_bips.toJson()
       << ",\"board_power\":" << board_power.toJson();
    if (include_wall) {
        os << ",\"wall_seconds\":" << obs::canonicalNumber(wall_seconds)
           << ",\"board_ticks_per_sec\":"
           << obs::canonicalNumber(board_ticks_per_sec)
           << ",\"adapt\":" << adapt.toJson();
    }
    os << "}";
    return os.str();
}

std::uint64_t
FleetMetrics::digest() const
{
    return obs::fnv1a(toJson(false));
}

}  // namespace yukta::fleet
