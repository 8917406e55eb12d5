#include "controllers/layer_controllers.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"

namespace yukta::controllers {

using linalg::Vector;
using platform::HardwareInputs;
using platform::PlacementPolicy;

double
exdMetric(double total_power, double bips)
{
    double perf = std::max(bips, 0.05);
    return std::max(total_power, 0.0) / (perf * perf);
}

ExdOptimizer
makeHwOptimizer(const platform::BoardConfig& cfg)
{
    OptimizerConfig oc;
    // Targets: [BIPS, P_big, P_little, Temp].
    oc.initial = {3.0, 0.7 * cfg.power_limit_big,
                  0.7 * cfg.power_limit_little, cfg.temp_limit - 9.0};
    oc.min = {0.5, 0.3, 0.05, 40.0};
    oc.max = {12.0, 0.93 * cfg.power_limit_big,
              0.93 * cfg.power_limit_little, cfg.temp_limit - 4.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kBudget,
               TargetRole::kBudget, TargetRole::kCeiling};
    oc.step = {0.6, 0.25, 0.03, 0.0};
    oc.periods_per_move = 6;
    return ExdOptimizer(oc);
}

ExdOptimizer
makeOsOptimizer()
{
    OptimizerConfig oc;
    // Targets: [BIPS_big, BIPS_little, dSC]. The spare-compute
    // difference is informational: its target follows the measurement
    // (a fixed dSC target would fight thread consolidation, since an
    // all-big placement legitimately drives dSC negative).
    oc.initial = {3.0, 1.0, 0.0};
    oc.min = {0.5, 0.1, -10.0};
    oc.max = {10.0, 4.0, 10.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kMaximize,
               TargetRole::kCeiling};
    oc.step = {0.6, 0.3, 0.0};
    // Coordinate mode: the two cluster-BIPS targets trade off through
    // thread placement, so they must be probed one at a time.
    oc.coordinate = true;
    return ExdOptimizer(oc);
}

ExdOptimizer
makeMonolithicOptimizer(const platform::BoardConfig& cfg)
{
    OptimizerConfig oc;
    // Targets: [BIPS, P_big, P_little, Temp, BIPS_big, BIPS_little,
    // dSC].
    oc.initial = {3.0,  0.7 * cfg.power_limit_big,
                  0.7 * cfg.power_limit_little,
                  cfg.temp_limit - 9.0,
                  3.0,  1.0,
                  1.0};
    oc.min = {0.5, 0.3, 0.05, 40.0, 0.5, 0.1, -10.0};
    oc.max = {12.0, 0.93 * cfg.power_limit_big,
              0.93 * cfg.power_limit_little, cfg.temp_limit - 4.0, 10.0,
              4.0, 10.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kBudget,
               TargetRole::kBudget,   TargetRole::kCeiling,
               TargetRole::kMaximize, TargetRole::kMaximize,
               TargetRole::kCeiling};
    oc.step = {0.5, 0.15, 0.015, 0.0, 0.4, 0.15, 0.0};
    return ExdOptimizer(oc);
}

// ----------------------------------------------------------------
// SSV hardware controller.
// ----------------------------------------------------------------

SsvHwController::SsvHwController(SsvRuntime runtime, ExdOptimizer optimizer)
    : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
{
}

bool
SsvHwController::holdTargets(const Vector& targets)
{
    held_targets_ = targets;
    hold_ = true;
    return true;
}

void
SsvHwController::attachTrace(obs::TraceSink* sink)
{
    trace_ = sink;
    optimizer_.attachTrace(sink, "opt-hw");
}

HardwareInputs
SsvHwController::invoke(const HwSignals& s)
{
    Vector y{s.perf_bips, s.p_big, s.p_little, s.temp};
    Vector targets =
        hold_ ? held_targets_
              : optimizer_.update(
                    exdMetric(s.p_big + s.p_little, s.perf_bips), y);
    Vector ext{s.threads_big, s.tpc_big, s.tpc_little};
    SsvInvokeInfo info;
    Vector u = runtime_.invoke(targets - y, ext,
                               trace_ != nullptr ? &info : nullptr);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("hw", "ssv");
        ev.vec("y", y.raw())
            .vec("targets", targets.raw())
            .vec("dy", info.dy.raw())
            .vec("ext", ext.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated)
            .flags("quant", info.quantized);
        trace_->record(std::move(ev));
    }

    HardwareInputs out;
    out.big_cores = static_cast<std::size_t>(std::lround(u[0]));
    out.little_cores = static_cast<std::size_t>(std::lround(u[1]));
    out.freq_big = u[2];
    out.freq_little = u[3];
    return out;
}

void
SsvHwController::reset()
{
    runtime_.reset();
    optimizer_.reset();
}

void
SsvHwController::swapRuntime(SsvRuntime runtime, const Vector& u_prev)
{
    runtime.armBumpless(u_prev);
    runtime_ = std::move(runtime);
}

void
SsvHwController::installRuntime(SsvRuntime runtime)
{
    runtime_ = std::move(runtime);
}

// ----------------------------------------------------------------
// SSV software controller.
// ----------------------------------------------------------------

SsvOsController::SsvOsController(SsvRuntime runtime, ExdOptimizer optimizer)
    : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
{
}

bool
SsvOsController::holdTargets(const Vector& targets)
{
    held_targets_ = targets;
    hold_ = true;
    return true;
}

void
SsvOsController::attachTrace(obs::TraceSink* sink)
{
    trace_ = sink;
    optimizer_.attachTrace(sink, "opt-os");
}

PlacementPolicy
SsvOsController::invoke(const OsSignals& s)
{
    Vector y{s.perf_big, s.perf_little, s.d_spare};
    Vector targets =
        hold_ ? held_targets_
              : optimizer_.update(
                    exdMetric(s.total_power, s.perf_big + s.perf_little),
                    y);
    Vector ext{s.big_cores, s.little_cores, s.freq_big, s.freq_little};
    SsvInvokeInfo info;
    Vector u = runtime_.invoke(targets - y, ext,
                               trace_ != nullptr ? &info : nullptr);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("os", "ssv");
        ev.vec("y", y.raw())
            .vec("targets", targets.raw())
            .vec("dy", info.dy.raw())
            .vec("ext", ext.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated)
            .flags("quant", info.quantized);
        trace_->record(std::move(ev));
    }

    PlacementPolicy out;
    // Threads assigned to big cannot exceed the runnable threads.
    out.threads_big =
        std::clamp(u[0], 0.0, static_cast<double>(s.num_threads));
    out.tpc_big = std::max(1.0, u[1]);
    out.tpc_little = std::max(1.0, u[2]);
    return out;
}

void
SsvOsController::reset()
{
    runtime_.reset();
    optimizer_.reset();
}

// ----------------------------------------------------------------
// LQG controllers.
// ----------------------------------------------------------------

LqgHwController::LqgHwController(LqgRuntime runtime, ExdOptimizer optimizer)
    : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
{
}

void
LqgHwController::attachTrace(obs::TraceSink* sink)
{
    trace_ = sink;
    optimizer_.attachTrace(sink, "opt-hw");
}

bool
LqgHwController::holdTargets(const Vector& targets)
{
    held_targets_ = targets;
    hold_ = true;
    return true;
}

HardwareInputs
LqgHwController::invoke(const HwSignals& s)
{
    Vector y{s.perf_bips, s.p_big, s.p_little, s.temp};
    Vector targets =
        hold_ ? held_targets_
              : optimizer_.update(
                    exdMetric(s.p_big + s.p_little, s.perf_bips), y);
    LqgInvokeInfo info;
    Vector u = runtime_.invoke(targets - y,
                               trace_ != nullptr ? &info : nullptr);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("hw", "lqg");
        ev.vec("y", y.raw())
            .vec("targets", targets.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated);
        trace_->record(std::move(ev));
    }

    HardwareInputs out;
    out.big_cores = static_cast<std::size_t>(std::lround(u[0]));
    out.little_cores = static_cast<std::size_t>(std::lround(u[1]));
    out.freq_big = u[2];
    out.freq_little = u[3];
    return out;
}

void
LqgHwController::reset()
{
    runtime_.reset();
    optimizer_.reset();
}

LqgOsController::LqgOsController(LqgRuntime runtime, ExdOptimizer optimizer)
    : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
{
}

void
LqgOsController::attachTrace(obs::TraceSink* sink)
{
    trace_ = sink;
    optimizer_.attachTrace(sink, "opt-os");
}

PlacementPolicy
LqgOsController::invoke(const OsSignals& s)
{
    Vector y{s.perf_big, s.perf_little, s.d_spare};
    Vector targets = optimizer_.update(
        exdMetric(s.total_power, s.perf_big + s.perf_little), y);
    LqgInvokeInfo info;
    Vector u = runtime_.invoke(targets - y,
                               trace_ != nullptr ? &info : nullptr);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("os", "lqg");
        ev.vec("y", y.raw())
            .vec("targets", targets.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated);
        trace_->record(std::move(ev));
    }

    PlacementPolicy out;
    out.threads_big =
        std::clamp(u[0], 0.0, static_cast<double>(s.num_threads));
    out.tpc_big = std::max(1.0, u[1]);
    out.tpc_little = std::max(1.0, u[2]);
    return out;
}

void
LqgOsController::reset()
{
    runtime_.reset();
    optimizer_.reset();
}

// ----------------------------------------------------------------
// Monolithic LQG.
// ----------------------------------------------------------------

MonolithicLqgController::MonolithicLqgController(LqgRuntime runtime,
                                                 ExdOptimizer optimizer)
    : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
{
}

void
MonolithicLqgController::attachTrace(obs::TraceSink* sink)
{
    trace_ = sink;
    optimizer_.attachTrace(sink, "opt-joint");
}

std::pair<HardwareInputs, PlacementPolicy>
MonolithicLqgController::invoke(const HwSignals& hw, const OsSignals& os)
{
    Vector y{hw.perf_bips, hw.p_big,      hw.p_little, hw.temp,
             os.perf_big,  os.perf_little, os.d_spare};
    Vector targets = optimizer_.update(
        exdMetric(hw.p_big + hw.p_little, hw.perf_bips), y);
    LqgInvokeInfo info;
    Vector u = runtime_.invoke(targets - y,
                               trace_ != nullptr ? &info : nullptr);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("joint", "lqg");
        ev.vec("y", y.raw())
            .vec("targets", targets.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated);
        trace_->record(std::move(ev));
    }

    HardwareInputs hin;
    hin.big_cores = static_cast<std::size_t>(std::lround(u[0]));
    hin.little_cores = static_cast<std::size_t>(std::lround(u[1]));
    hin.freq_big = u[2];
    hin.freq_little = u[3];

    PlacementPolicy pol;
    pol.threads_big =
        std::clamp(u[4], 0.0, static_cast<double>(os.num_threads));
    pol.tpc_big = std::max(1.0, u[5]);
    pol.tpc_little = std::max(1.0, u[6]);
    return {hin, pol};
}

void
MonolithicLqgController::reset()
{
    runtime_.reset();
    optimizer_.reset();
}

}  // namespace yukta::controllers
