#include "controllers/multilayer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/profile.h"
#include "obs/trace.h"

namespace yukta::controllers {

using platform::ClusterId;
using platform::HardwareInputs;
using platform::PlacementPolicy;
using platform::SensorReadings;

MultilayerSystem::MultilayerSystem(platform::Board board,
                                   std::unique_ptr<HwController> hw,
                                   std::unique_ptr<OsController> os)
    : board_(std::move(board)), hw_(std::move(hw)), os_(std::move(os))
{
    last_hw_ = board_.requestedHardware();
    last_policy_ = board_.placementPolicy();
}

MultilayerSystem::MultilayerSystem(platform::Board board,
                                   std::unique_ptr<JointController> joint)
    : board_(std::move(board)), joint_(std::move(joint))
{
    last_hw_ = board_.requestedHardware();
    last_policy_ = board_.placementPolicy();
}

void
MultilayerSystem::enableTrace(double interval)
{
    board_.enableTrace(interval);
}

void
MultilayerSystem::attachFaultInjector(const fault::FaultPlan& plan)
{
    injector_ = std::make_unique<fault::FaultInjector>(plan);
    injector_->attachTrace(sink_);
}

void
MultilayerSystem::enableSupervisor(const SupervisorConfig& cfg)
{
    supervisor_ = std::make_unique<Supervisor>(board_.config(), cfg);
    supervisor_->attachTrace(sink_);
}

void
MultilayerSystem::attachTraceSink(obs::TraceSink* sink)
{
    sink_ = sink;
    if (hw_) {
        hw_->attachTrace(sink);
    }
    if (os_) {
        os_->attachTrace(sink);
    }
    if (joint_) {
        joint_->attachTrace(sink);
    }
    if (supervisor_) {
        supervisor_->attachTrace(sink);
    }
    if (injector_) {
        injector_->attachTrace(sink);
    }
    board_.attachTraceSink(sink);
}

HwSignals
MultilayerSystem::gatherHw(const SensorReadings& obs) const
{
    HwSignals s;
    double instr = obs.instr_big + obs.instr_little;
    s.perf_bips = (instr - last_instr_total_) / kControlPeriod;
    s.p_big = obs.p_big;
    s.p_little = obs.p_little;
    s.temp = obs.temp;
    // External signals: the OS layer's current inputs.
    s.threads_big = last_policy_.threads_big;
    s.tpc_big = last_policy_.tpc_big;
    s.tpc_little = last_policy_.tpc_little;
    return s;
}

OsSignals
MultilayerSystem::gatherOs(const SensorReadings& obs) const
{
    OsSignals s;
    s.perf_big = (obs.instr_big - last_instr_big_) / kControlPeriod;
    s.perf_little = (obs.instr_little - last_instr_little_) / kControlPeriod;
    s.d_spare = board_.spareCompute(ClusterId::kBig) -
                board_.spareCompute(ClusterId::kLittle);
    s.num_threads = board_.threadsRunning();
    s.total_power = obs.p_big + obs.p_little;
    // External signals: the HW layer's current inputs.
    const HardwareInputs& hw = board_.requestedHardware();
    s.big_cores = static_cast<double>(hw.big_cores);
    s.little_cores = static_cast<double>(hw.little_cores);
    s.freq_big = hw.freq_big;
    s.freq_little = hw.freq_little;
    return s;
}

void
MultilayerSystem::applyIfChanged(const HardwareInputs& hw,
                                 const PlacementPolicy& policy)
{
    auto hwDiffers = [&]() {
        return hw.big_cores != last_hw_.big_cores ||
               hw.little_cores != last_hw_.little_cores ||
               std::abs(hw.freq_big - last_hw_.freq_big) > 1e-9 ||
               std::abs(hw.freq_little - last_hw_.freq_little) > 1e-9;
    };
    auto policyDiffers = [&]() {
        return std::abs(policy.threads_big - last_policy_.threads_big) >
                   0.5 ||
               std::abs(policy.tpc_big - last_policy_.tpc_big) > 0.25 ||
               std::abs(policy.tpc_little - last_policy_.tpc_little) > 0.25;
    };
    // NaN-valued commands compare false against the thresholds above
    // and are therefore dropped here; the unsupervised stack survives
    // them, it just keeps flying on its previous settings.
    if (hwDiffers()) {
        board_.applyHardwareInputs(hw);
        last_hw_ = hw;
    }
    if (policyDiffers()) {
        board_.applyPlacementPolicy(policy);
        last_policy_ = policy;
    }
}

bool
MultilayerSystem::holdHwTargets(const linalg::Vector& targets)
{
    return hw_ != nullptr && hw_->holdTargets(targets);
}

bool
MultilayerSystem::hotSwapHwRuntime(SsvRuntime runtime)
{
    auto* ssv = dynamic_cast<SsvHwController*>(hw_.get());
    if (ssv == nullptr) {
        return false;
    }
    linalg::Vector u_prev{static_cast<double>(last_hw_.big_cores),
                          static_cast<double>(last_hw_.little_cores),
                          last_hw_.freq_big, last_hw_.freq_little};
    ssv->swapRuntime(std::move(runtime), u_prev);
    if (supervisor_ != nullptr) {
        supervisor_->noteHotSwap(periods_, t_, "hw controller hot-swap");
    }
    if (sink_ != nullptr) {
        obs::TraceEvent ev = sink_->makeEvent("adapt", "swap");
        ev.integer("period", periods_).vec("u_prev", u_prev.raw());
        sink_->record(std::move(ev));
    }
    return true;
}

bool
MultilayerSystem::installHwRuntime(SsvRuntime runtime)
{
    auto* ssv = dynamic_cast<SsvHwController*>(hw_.get());
    if (ssv == nullptr) {
        return false;
    }
    ssv->installRuntime(std::move(runtime));
    return true;
}

void
MultilayerSystem::stepPeriodBegin(BatchRuntime* batch)
{
    (void)batch;
    const double t = t_;
    const int period = periods_;
    pending_ = PendingTick{};
    pending_.in_progress = true;
    if (sink_ != nullptr) {
        sink_->beginTick(period, t);
    }
    if (injector_ && injector_->dropTick(t, period)) {
        // Timing fault: the controllers never run this tick; the
        // plant keeps evolving under the previous commands.
        if (supervisor_) {
            supervisor_->noteSkippedTick();
        }
        pending_.dropped = true;
        return;
    }
    SensorReadings obs = board_.readings();
    if (injector_) {
        obs = injector_->corruptReadings(t, obs);
    }

    SupervisorMode mode = SupervisorMode::kNominal;
    if (supervisor_) {
        SupervisorDecision d = supervisor_->assess(period, t, obs);
        obs = d.readings;
        mode = d.mode;
        if (d.reset_primaries) {
            if (hw_) {
                hw_->reset();
            }
            if (os_) {
                os_->reset();
            }
            if (joint_) {
                joint_->reset();
            }
        }
    }

    HwSignals hw_sig = gatherHw(obs);
    OsSignals os_sig = gatherOs(obs);

    HardwareInputs hw_in = last_hw_;
    PlacementPolicy policy = last_policy_;
    switch (mode) {
      case SupervisorMode::kNominal:
        if (joint_) {
            auto [h, p] = joint_->invoke(hw_sig, os_sig);
            hw_in = h;
            policy = p;
        } else {
            if (hw_) {
                hw_in = hw_->invoke(hw_sig);
            }
            if (os_) {
                policy = os_->invoke(os_sig);
            }
        }
        break;
      case SupervisorMode::kHold:
        break;  // Last commands stay in force.
      case SupervisorMode::kFallback:
        hw_in = supervisor_->fallbackHardware(hw_sig);
        policy = supervisor_->fallbackPolicy(os_sig);
        break;
      case SupervisorMode::kSafe:
        hw_in = supervisor_->safeHardware();
        policy = supervisor_->safePolicy();
        break;
    }

    pending_.mode = mode;
    pending_.hw_in = hw_in;
    pending_.policy = policy;
    pending_.instr_big = obs.instr_big;
    pending_.instr_little = obs.instr_little;
}

void
MultilayerSystem::stepPeriodFinish()
{
    if (!pending_.in_progress) {
        throw std::logic_error(
            "MultilayerSystem::stepPeriodFinish: no pending period");
    }
    pending_.in_progress = false;
    const double t = t_;
    if (!pending_.dropped) {
        HardwareInputs hw_in = pending_.hw_in;
        PlacementPolicy policy = pending_.policy;
        const SupervisorMode mode = pending_.mode;

        if (supervisor_) {
            hw_in = supervisor_->guardHardware(hw_in);
            policy = supervisor_->guardPolicy(policy);
            // The supervisor judges counter staleness against the
            // placement it commanded, not what a (possibly
            // faulty) actuator did with it.
            supervisor_->notePlacement(policy);
        }
        if (injector_) {
            hw_in = injector_->corruptHardware(t, last_hw_, hw_in);
            policy = injector_->corruptPolicy(t, last_policy_, policy);
        }
        applyIfChanged(hw_in, policy);
        if (sink_ != nullptr) {
            obs::TraceEvent ev = sink_->makeEvent("sys", "cmd");
            ev.str("mode", supervisor_ != nullptr
                               ? supervisorModeName(mode)
                               : std::string("nominal"))
                .integer("big_cores",
                         static_cast<long long>(hw_in.big_cores))
                .integer("little_cores",
                         static_cast<long long>(hw_in.little_cores))
                .num("freq_big", hw_in.freq_big)
                .num("freq_little", hw_in.freq_little)
                .num("threads_big", policy.threads_big)
                .num("tpc_big", policy.tpc_big)
                .num("tpc_little", policy.tpc_little);
            sink_->record(std::move(ev));
        }

        // Marks advance in observation space, so corrupted (or
        // repaired) counters stay consistent with the BIPS deltas
        // the controllers were shown.
        last_instr_big_ = pending_.instr_big;
        last_instr_little_ = pending_.instr_little;
        last_instr_total_ = pending_.instr_big + pending_.instr_little;
    }

    board_.run(kControlPeriod);
    if (sink_ != nullptr) {
        obs::TraceEvent ev = sink_->makeEvent("sys", "plant");
        ev.num("p_big", board_.truePowerBig())
            .num("p_little", board_.truePowerLittle())
            .num("temp", board_.trueTemperature())
            .num("energy", board_.energy())
            .integer("emergency", board_.emergencyActive() ? 1 : 0);
        sink_->record(std::move(ev));
    }
    t_ += kControlPeriod;
    ++periods_;
}

void
MultilayerSystem::stepPeriod()
{
    YUKTA_PROFILE_SCOPE("multilayer_tick");
    stepPeriodBegin();
    stepPeriodFinish();
}

RunMetrics
MultilayerSystem::run(double max_seconds)
{
    t_ = 0.0;
    periods_ = 0;
    while (!board_.done() && t_ < max_seconds) {
        stepPeriod();
    }
    return metrics();
}

RunMetrics
MultilayerSystem::metrics() const
{
    RunMetrics metrics;
    metrics.periods = periods_;
    metrics.exec_time = board_.elapsed();
    metrics.energy = board_.energy();
    metrics.exd = board_.energyDelay();
    metrics.completed = board_.done();
    metrics.emergency_time = board_.emergencyTime();
    metrics.violation_time = board_.constraintViolationTime();
    metrics.supervised = supervisor_ != nullptr;
    if (supervisor_) {
        metrics.supervisor = supervisor_->report();
    }
    if (injector_) {
        metrics.faults = injector_->stats();
    }
    metrics.trace = board_.trace();
    return metrics;
}

template <class Io>
void
MultilayerSystem::state(Io& io)
{
    board_.state(io);
    io.expect("ml.has_joint", joint_ != nullptr);
    if (joint_ != nullptr) {
        joint_->state(io);
    } else {
        hw_->state(io);
        os_->state(io);
    }
    io.expect("ml.has_injector", injector_ != nullptr);
    if (injector_ != nullptr) {
        injector_->state(io);
    }
    io.expect("ml.has_supervisor", supervisor_ != nullptr);
    if (supervisor_ != nullptr) {
        supervisor_->state(io);
    }

    io.u64("ml.last_hw.big_cores", last_hw_.big_cores);
    io.u64("ml.last_hw.little_cores", last_hw_.little_cores);
    io.f64("ml.last_hw.freq_big", last_hw_.freq_big);
    io.f64("ml.last_hw.freq_little", last_hw_.freq_little);
    io.f64("ml.last_policy.threads_big", last_policy_.threads_big);
    io.f64("ml.last_policy.tpc_big", last_policy_.tpc_big);
    io.f64("ml.last_policy.tpc_little", last_policy_.tpc_little);
    io.f64("ml.last_instr_total", last_instr_total_);
    io.f64("ml.last_instr_big", last_instr_big_);
    io.f64("ml.last_instr_little", last_instr_little_);
    io.f64("ml.t", t_);
    io.i64("ml.periods", periods_);
}

template void MultilayerSystem::state(obs::StateWriter&);
template void MultilayerSystem::state(obs::StateReader&);

}  // namespace yukta::controllers
