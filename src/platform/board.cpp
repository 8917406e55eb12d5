#include "platform/board.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace yukta::platform {

namespace {

/** Per-thread execution rate in giga-instructions per second. */
double
threadRate(const ThreadInfo& info, ClusterId cluster, double freq,
           std::size_t sharers)
{
    // Roofline-ish: time per (normalized) instruction is a core part
    // scaling with 1/f plus a memory part pinned to the 1 GHz-
    // equivalent memory subsystem.
    double m = std::clamp(info.mem_boundness, 0.0, 0.95);
    double rate_ghz = 1.0 / ((1.0 - m) / freq + m / 1.0);
    double ipc =
        cluster == ClusterId::kBig ? info.ipc_big : info.ipc_little;
    double share =
        sharers > 0 ? 1.0 / static_cast<double>(sharers) : 0.0;
    // Small multiplexing overhead per extra thread on the core.
    double mux = std::pow(0.97, static_cast<double>(sharers - 1));
    return ipc * rate_ghz * share * mux;
}

}  // namespace

Board::Board(BoardConfig cfg, Workload workload, std::uint32_t seed)
    : cfg_(cfg), dvfs_big_(cfg.big), dvfs_little_(cfg.little),
      power_big_(cfg.big, dvfs_big_), power_little_(cfg.little, dvfs_little_),
      thermal_(cfg.thermal), sensors_(cfg.sensors, cfg.thermal.ambient, seed),
      tmu_(cfg.tmu, cfg_, dvfs_big_, dvfs_little_),
      workload_(std::move(workload))
{
    requested_.big_cores = cfg_.big.num_cores;
    requested_.little_cores = cfg_.little.num_cores;
    requested_.freq_big = dvfs_big_.maxFreq();
    requested_.freq_little = dvfs_little_.maxFreq();
    refreshApplied();
    refreshPlacement(true);
}

void
Board::applyHardwareInputs(const HardwareInputs& in)
{
    // A non-finite frequency request is rejected field-wise and the
    // previous setting kept, the way a sysfs write of garbage fails
    // with -EINVAL and leaves the governor untouched. This keeps the
    // platform NaN-free even when an (unsupervised) controller was
    // poisoned by corrupted telemetry.
    HardwareInputs want = in;
    if (!std::isfinite(want.freq_big)) {
        want.freq_big = requested_.freq_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.freq_little)) {
        want.freq_little = requested_.freq_little;
        ++rejected_inputs_;
    }
    requested_ = want;
    // Quantize/clamp like cpufreq + hotplug would.
    requested_.big_cores =
        std::clamp<std::size_t>(want.big_cores, 1, cfg_.big.num_cores);
    requested_.little_cores =
        std::clamp<std::size_t>(want.little_cores, 1,
                                cfg_.little.num_cores);
    requested_.freq_big = dvfs_big_.quantize(want.freq_big);
    requested_.freq_little = dvfs_little_.quantize(want.freq_little);
    refreshApplied();
    refreshPlacement(true);
    migration_stall_left_ = cfg_.migration_stall;
}

void
Board::applyPlacementPolicy(const PlacementPolicy& policy)
{
    // Same rejection rule as applyHardwareInputs: placeThreads rounds
    // and casts the policy knobs, so letting a NaN through would be
    // undefined behavior, not just a bad placement.
    PlacementPolicy want = policy;
    if (!std::isfinite(want.threads_big)) {
        want.threads_big = policy_.threads_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.tpc_big)) {
        want.tpc_big = policy_.tpc_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.tpc_little)) {
        want.tpc_little = policy_.tpc_little;
        ++rejected_inputs_;
    }
    policy_ = want;
    refreshPlacement(true);
    migration_stall_left_ = cfg_.migration_stall;
}

SensorReadings
Board::readings() const
{
    SensorReadings r;
    r.p_big = sensors_.powerBig();
    r.p_little = sensors_.powerLittle();
    r.temp = sensors_.temperature();
    r.instr_big = counters_.instr_big;
    r.instr_little = counters_.instr_little;
    return r;
}

void
Board::refreshApplied()
{
    const EmergencyCaps& caps = tmu_.caps();
    applied_ = requested_;
    applied_.big_cores = std::min(applied_.big_cores, caps.max_big_cores);
    applied_.big_cores = std::max<std::size_t>(applied_.big_cores, 1);
    applied_.freq_big = dvfs_big_.quantize(
        std::min(requested_.freq_big, caps.freq_cap_big));
    applied_.freq_little = dvfs_little_.quantize(
        std::min(requested_.freq_little, caps.freq_cap_little));
}

void
Board::refreshPlacement(bool force)
{
    std::size_t version = workload_.placementVersion();
    if (!force && version == placement_version_) {
        return;
    }
    placement_version_ = version;
    std::size_t threads = workload_.numRunnableThreads();
    placement_ = placeThreads(policy_, threads, applied_.big_cores,
                              applied_.little_cores);
    rebuildStepTable();
}

void
Board::rebuildStepTable()
{
    auto clusterUtil = [](const std::vector<std::size_t>& per_core) {
        if (per_core.empty()) {
            return 0.0;
        }
        double u = 0.0;
        for (std::size_t n : per_core) {
            u += n > 0 ? 1.0 : 0.05;  // idle-but-on cores sip power
        }
        return u / static_cast<double>(per_core.size());
    };
    step_big_.util = clusterUtil(placement_.big_core_threads);
    step_big_.op = power_big_.operatingPoint(applied_.freq_big);
    step_little_.util = clusterUtil(placement_.little_core_threads);
    step_little_.op = power_little_.operatingPoint(applied_.freq_little);

    // Natural (unstalled) execution rate per thread from its core
    // assignment.
    std::size_t nmap = std::min(workload_.numRunnableThreads(),
                                placement_.thread_cluster.size());
    step_threads_.resize(nmap);
    for (std::size_t t = 0; t < nmap; ++t) {
        ClusterId c = placement_.thread_cluster[t];
        std::size_t core = placement_.thread_core[t];
        std::size_t sharers =
            c == ClusterId::kBig
                ? placement_.big_core_threads[core]
                : placement_.little_core_threads[core];
        double f = c == ClusterId::kBig ? applied_.freq_big
                                        : applied_.freq_little;
        ThreadInfo info = workload_.threadInfo(t);
        StepThread& st = step_threads_[t];
        st.cluster = c;
        st.rate = threadRate(info, c, f, sharers);
        st.coupling = info.barrier_coupling;
        st.activity = info.activity;
        st.instance = std::min<std::size_t>(info.instance, 15);
    }
}

double
Board::spareCompute(ClusterId c) const
{
    std::size_t on = c == ClusterId::kBig ? applied_.big_cores
                                          : applied_.little_cores;
    return platform::spareCompute(placement_, c, on);
}

void
Board::enableTrace(double interval)
{
    if (interval <= 0.0) {
        throw std::invalid_argument("Board::enableTrace: bad interval");
    }
    trace_interval_ = interval;
    trace_timer_ = 0.0;
    trace_instr_mark_ = counters_.total();
}

void
Board::run(double seconds)
{
    long steps = std::lround(seconds / cfg_.time_step);
    for (long i = 0; i < steps && !done(); ++i) {
        stepOnce();
    }
}

void
Board::stepOnce()
{
    double dt = cfg_.time_step;
    refreshPlacement(false);

    // --- Execute threads for dt. ---
    std::size_t threads = step_threads_.size();
    double stall_factor = migration_stall_left_ > 0.0 ? 0.2 : 1.0;
    migration_stall_left_ = std::max(0.0, migration_stall_left_ - dt);

    // Pass 1: the slowest barrier-coupled thread of each instance.
    double min_rate_per_instance[16];
    for (int i = 0; i < 16; ++i) {
        min_rate_per_instance[i] = 1e300;
    }
    for (std::size_t t = 0; t < threads; ++t) {
        const StepThread& st = step_threads_[t];
        if (st.coupling > 0.0) {
            min_rate_per_instance[st.instance] = std::min(
                min_rate_per_instance[st.instance], st.rate * stall_factor);
        }
    }

    // Pass 2: iteration-level barriers drag coupled threads toward
    // their slowest sibling, then retire the work.
    double instr_big = 0.0;
    double instr_little = 0.0;
    for (std::size_t t = 0; t < threads; ++t) {
        const StepThread& st = step_threads_[t];
        double rate = st.rate * stall_factor;
        if (st.coupling > 0.0) {
            double slowest = min_rate_per_instance[st.instance];
            if (slowest < rate) {
                rate = (1.0 - st.coupling) * rate + st.coupling * slowest;
            }
        }
        double work = rate * dt;  // giga-instructions this step
        if (st.cluster == ClusterId::kBig) {
            instr_big += work;
        } else {
            instr_little += work;
        }
        workload_.retire(t, work);
        if (workload_.placementVersion() != placement_version_) {
            // Phase change mid-step: stop executing with a stale map.
            refreshPlacement(false);
            break;
        }
    }
    counters_.instr_big += instr_big;
    counters_.instr_little += instr_little;

    // --- Power. ---
    // Activity averages over the first `threads` table entries. After
    // a mid-step refresh those are entries of the new table, which
    // may hold more or fewer threads (DESIGN.md §6).
    std::size_t averaged = std::min(threads, step_threads_.size());
    auto clusterActivity = [&](ClusterId c) {
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t t = 0; t < averaged; ++t) {
            if (step_threads_[t].cluster == c) {
                sum += step_threads_[t].activity;
                ++n;
            }
        }
        return n > 0 ? sum / static_cast<double>(n) : 1.0;
    };

    ClusterActivity act_big;
    act_big.cores_on = applied_.big_cores;
    act_big.freq = applied_.freq_big;
    act_big.avg_utilization = step_big_.util;
    act_big.activity = clusterActivity(ClusterId::kBig);

    ClusterActivity act_little;
    act_little.cores_on = applied_.little_cores;
    act_little.freq = applied_.freq_little;
    act_little.avg_utilization = step_little_.util;
    act_little.activity = clusterActivity(ClusterId::kLittle);

    double temp = thermal_.hotspot();
    true_p_big_ = power_big_.clusterPower(act_big, step_big_.op, temp);
    true_p_little_ =
        power_little_.clusterPower(act_little, step_little_.op, temp);
    if (drift_active_) {
        // Plant drift: the silicon draws more (or less) than the
        // nominal model for the same operating point. Applied before
        // energy/thermal/TMU/sensing so the whole physical chain --
        // and only the physical chain -- sees it.
        true_p_big_ *= drift_scale_;
        true_p_little_ *= drift_scale_;
    }
    energy_ += (true_p_big_ + true_p_little_) * dt;

    // --- Thermal. ---
    double weighted = true_p_big_ * cfg_.big.thermal_weight +
                      true_p_little_ * cfg_.little.thermal_weight;
    thermal_.step(weighted, dt);

    // --- Emergency heuristics (TMU). ---
    EmergencyCaps before = tmu_.caps();
    EmergencyCaps caps =
        tmu_.step(dt, thermal_.hotspot(), true_p_big_, true_p_little_,
                  applied_.freq_big, applied_.freq_little);
    if (caps.freq_cap_big != before.freq_cap_big ||
        caps.freq_cap_little != before.freq_cap_little ||
        caps.max_big_cores != before.max_big_cores) {
        refreshApplied();
        refreshPlacement(true);
        if (event_trace_ != nullptr) {
            obs::TraceEvent ev = event_trace_->makeEvent("platform", "tmu");
            ev.integer("active", caps.active ? 1 : 0)
                .num("freq_cap_big", caps.freq_cap_big)
                .num("freq_cap_little", caps.freq_cap_little)
                .integer("max_big_cores",
                         static_cast<long long>(caps.max_big_cores))
                .num("temp", thermal_.hotspot())
                .num("p_big", true_p_big_);
            event_trace_->record(std::move(ev));
        }
    }

    // --- Sensors. ---
    sensors_.step(dt, true_p_big_, true_p_little_, thermal_.hotspot());

    // --- Constraint-violation accounting (true state, not sensed).
    if (true_p_big_ > cfg_.power_limit_big ||
        true_p_little_ > cfg_.power_limit_little ||
        thermal_.hotspot() > cfg_.temp_limit) {
        violation_time_ += dt;
    }

    time_ += dt;

    // --- Trace. ---
    if (trace_interval_ > 0.0) {
        trace_timer_ += dt;
        if (trace_timer_ >= trace_interval_) {
            TraceSample s;
            s.time = time_;
            s.p_big = true_p_big_;
            s.p_little = true_p_little_;
            s.temp = thermal_.hotspot();
            s.bips = (counters_.total() - trace_instr_mark_) / trace_timer_;
            s.f_big = applied_.freq_big;
            s.f_little = applied_.freq_little;
            s.big_cores = applied_.big_cores;
            s.little_cores = applied_.little_cores;
            s.threads = workload_.numRunnableThreads();
            s.emergency = caps.active;
            trace_.push_back(s);
            trace_timer_ = 0.0;
            trace_instr_mark_ = counters_.total();
        }
    }
}

void
Board::setPowerDriftScale(double scale)
{
    if (!(scale > 0.0)) {
        throw std::invalid_argument(
            "Board::setPowerDriftScale: scale must be positive");
    }
    // Exactly 1.0 means "no drift configured" -- a deliberate exact
    // sentinel, not a numeric comparison.
    drift_active_ = scale != 1.0;  // yukta-lint: allow(float-eq)
    drift_scale_ = scale;
}

template <class Io>
void
Board::state(Io& io)
{
    thermal_.state(io);
    sensors_.state(io);
    tmu_.state(io);
    workload_.state(io);

    io.u64("board.req.big_cores", requested_.big_cores);
    io.u64("board.req.little_cores", requested_.little_cores);
    io.f64("board.req.freq_big", requested_.freq_big);
    io.f64("board.req.freq_little", requested_.freq_little);
    io.u64("board.app.big_cores", applied_.big_cores);
    io.u64("board.app.little_cores", applied_.little_cores);
    io.f64("board.app.freq_big", applied_.freq_big);
    io.f64("board.app.freq_little", applied_.freq_little);

    io.f64("board.policy.threads_big", policy_.threads_big);
    io.f64("board.policy.tpc_big", policy_.tpc_big);
    io.f64("board.policy.tpc_little", policy_.tpc_little);

    io.u64vec("board.place.big", placement_.big_core_threads);
    io.u64vec("board.place.little", placement_.little_core_threads);
    std::vector<std::uint64_t> clusters;
    clusters.reserve(placement_.thread_cluster.size());
    for (const ClusterId c : placement_.thread_cluster) {
        clusters.push_back(c == ClusterId::kBig ? 1 : 0);
    }
    io.u64vec("board.place.cluster", clusters);
    if constexpr (Io::kLoading) {
        placement_.thread_cluster.clear();
        for (const std::uint64_t c : clusters) {
            placement_.thread_cluster.push_back(
                c != 0 ? ClusterId::kBig : ClusterId::kLittle);
        }
    }
    io.u64vec("board.place.core", placement_.thread_core);
    io.u64("board.place.version", placement_version_);

    io.f64("board.time", time_);
    io.f64("board.energy", energy_);
    io.f64("board.true_p_big", true_p_big_);
    io.f64("board.true_p_little", true_p_little_);
    io.f64("board.migration_stall", migration_stall_left_);
    io.f64("board.violation_time", violation_time_);
    io.u64("board.rejected_inputs", rejected_inputs_);
    io.f64("board.instr_big", counters_.instr_big);
    io.f64("board.instr_little", counters_.instr_little);
    io.boolean("board.drift_active", drift_active_);
    io.f64("board.drift_scale", drift_scale_);
    if constexpr (Io::kLoading) {
        rebuildStepTable();
    }
}

template void Board::state(obs::StateWriter&);
template void Board::state(obs::StateReader&);

}  // namespace yukta::platform
