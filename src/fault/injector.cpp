#include "fault/injector.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace yukta::fault {

using platform::HardwareInputs;
using platform::PlacementPolicy;
using platform::SensorReadings;

namespace {

constexpr double kDefaultSpikeMagnitude = 8.0;
constexpr double kDefaultPartialFraction = 0.3;

/** Blends integer core counts for partial actuation. */
std::size_t
blendCores(std::size_t prev, std::size_t cmd, double frac)
{
    const double p = static_cast<double>(prev);
    const double c = static_cast<double>(cmd);
    return static_cast<std::size_t>(std::lround(p + frac * (c - p)));
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed),
      latched_(plan_.windows.size(), 0), latch_(plan_.windows.size())
{
}

bool
FaultInjector::corruptField(const FaultWindow& w, double& field,
                            double latched_value)
{
    const double before = field;
    switch (w.kind) {
      case FaultKind::kNan:
        field = std::numeric_limits<double>::quiet_NaN();
        break;
      case FaultKind::kInf:
        field = std::numeric_limits<double>::infinity();
        break;
      case FaultKind::kStuck:
      case FaultKind::kFreeze:
        field = latched_value;
        break;
      case FaultKind::kSpike: {
        const double mag =
            w.magnitude > 0.0 ? w.magnitude : kDefaultSpikeMagnitude;
        field = field * mag * (1.0 + 0.25 * jitter_(rng_));
        break;
      }
      case FaultKind::kDrop:
        field = 0.0;
        break;
      default:
        return false;  // Actuator/timing kinds never reach here.
    }
    // NaN != NaN, so count the NaN kind explicitly.
    return w.kind == FaultKind::kNan || field != before;
}

SensorReadings
FaultInjector::corruptReadings(double t, const SensorReadings& clean)
{
    SensorReadings out = clean;
    std::size_t fields_hit = 0;
    for (std::size_t i = 0; i < plan_.windows.size(); ++i) {
        const FaultWindow& w = plan_.windows[i];
        const bool sensor_target = w.target != FaultTarget::kActuator &&
                                   w.target != FaultTarget::kTiming &&
                                   w.target != FaultTarget::kBoard;
        if (!sensor_target) {
            continue;
        }
        if (!w.active(t)) {
            latched_[i] = 0;
            continue;
        }
        if (latched_[i] == 0) {
            // First tick inside the window: capture the latch value
            // (what stuck/freeze will keep reporting).
            latch_[i] = clean;
            latched_[i] = 1;
        }
        const SensorReadings& held = latch_[i];
        switch (w.target) {
          case FaultTarget::kPowerBig:
            fields_hit += corruptField(w, out.p_big, held.p_big) ? 1 : 0;
            break;
          case FaultTarget::kPowerLittle:
            fields_hit +=
                corruptField(w, out.p_little, held.p_little) ? 1 : 0;
            break;
          case FaultTarget::kTemp:
            fields_hit += corruptField(w, out.temp, held.temp) ? 1 : 0;
            break;
          case FaultTarget::kPerfBig:
            fields_hit +=
                corruptField(w, out.instr_big, held.instr_big) ? 1 : 0;
            break;
          case FaultTarget::kPerfLittle:
            fields_hit +=
                corruptField(w, out.instr_little, held.instr_little) ? 1
                                                                     : 0;
            break;
          case FaultTarget::kAll:
            fields_hit += corruptField(w, out.p_big, held.p_big) ? 1 : 0;
            fields_hit +=
                corruptField(w, out.p_little, held.p_little) ? 1 : 0;
            fields_hit += corruptField(w, out.temp, held.temp) ? 1 : 0;
            fields_hit +=
                corruptField(w, out.instr_big, held.instr_big) ? 1 : 0;
            fields_hit +=
                corruptField(w, out.instr_little, held.instr_little) ? 1
                                                                     : 0;
            break;
          default:
            break;
        }
    }
    if (fields_hit > 0) {
        ++stats_.corrupted_ticks;
        stats_.corrupted_fields += fields_hit;
        if (trace_ != nullptr) {
            obs::TraceEvent ev = trace_->makeEvent("fault", "sensor");
            ev.integer("fields_hit", static_cast<long long>(fields_hit))
                .num("p_big", out.p_big)
                .num("p_little", out.p_little)
                .num("temp", out.temp);
            trace_->record(std::move(ev));
        }
    }
    return out;
}

HardwareInputs
FaultInjector::corruptHardware(double t, const HardwareInputs& prev,
                               const HardwareInputs& cmd)
{
    HardwareInputs out = cmd;
    for (const FaultWindow& w : plan_.windows) {
        if (w.target != FaultTarget::kActuator || !w.active(t)) {
            continue;
        }
        switch (w.kind) {
          case FaultKind::kActIgnore:
            out = prev;
            break;
          case FaultKind::kActPartial: {
            const double frac = w.magnitude > 0.0
                                    ? w.magnitude
                                    : kDefaultPartialFraction;
            out.big_cores = blendCores(prev.big_cores, out.big_cores, frac);
            out.little_cores =
                blendCores(prev.little_cores, out.little_cores, frac);
            out.freq_big =
                prev.freq_big + frac * (out.freq_big - prev.freq_big);
            out.freq_little = prev.freq_little +
                              frac * (out.freq_little - prev.freq_little);
            break;
          }
          case FaultKind::kActQuantStuck:
            out.freq_big = prev.freq_big;
            out.freq_little = prev.freq_little;
            break;
          default:
            break;
        }
        ++stats_.actuator_faults;
        if (trace_ != nullptr) {
            obs::TraceEvent ev = trace_->makeEvent("fault", "actuator");
            ev.str("kind", faultKindId(w.kind))
                .num("freq_big", out.freq_big)
                .num("freq_little", out.freq_little)
                .integer("big_cores", static_cast<long long>(out.big_cores));
            trace_->record(std::move(ev));
        }
    }
    return out;
}

PlacementPolicy
FaultInjector::corruptPolicy(double t, const PlacementPolicy& prev,
                             const PlacementPolicy& cmd)
{
    PlacementPolicy out = cmd;
    for (const FaultWindow& w : plan_.windows) {
        if (w.target != FaultTarget::kActuator || !w.active(t)) {
            continue;
        }
        switch (w.kind) {
          case FaultKind::kActIgnore:
            out = prev;
            break;
          case FaultKind::kActPartial: {
            const double frac = w.magnitude > 0.0
                                    ? w.magnitude
                                    : kDefaultPartialFraction;
            out.threads_big =
                prev.threads_big + frac * (out.threads_big -
                                           prev.threads_big);
            out.tpc_big = prev.tpc_big + frac * (out.tpc_big - prev.tpc_big);
            out.tpc_little =
                prev.tpc_little + frac * (out.tpc_little - prev.tpc_little);
            break;
          }
          case FaultKind::kActQuantStuck:
            // Quantization faults live on the DVFS path; placement
            // still applies.
            break;
          default:
            break;
        }
    }
    return out;
}

bool
FaultInjector::dropTick(double t, int period)
{
    for (const FaultWindow& w : plan_.windows) {
        if (w.target != FaultTarget::kTiming || !w.active(t)) {
            continue;
        }
        if (w.kind == FaultKind::kTickMiss ||
            (w.kind == FaultKind::kTickDouble && period % 2 == 1)) {
            ++stats_.dropped_ticks;
            if (trace_ != nullptr) {
                obs::TraceEvent ev = trace_->makeEvent("fault", "drop");
                ev.str("kind", faultKindId(w.kind))
                    .integer("period", period);
                trace_->record(std::move(ev));
            }
            return true;
        }
    }
    return false;
}

template <class Io>
void
FaultInjector::state(Io& io)
{
    io.engine("inj.rng", rng_);
    io.distribution("inj.jitter", jitter_);
    io.intvec("inj.latched", latched_);
    if constexpr (Io::kLoading) {
        if (latched_.size() != plan_.windows.size()) {
            throw std::runtime_error(
                "FaultInjector: 'inj.latched' does not match the plan");
        }
    }
    io.expect("inj.latch.n", latch_.size());
    for (std::size_t i = 0; i < latch_.size(); ++i) {
        latch_[i].state(io, "inj.latch." + std::to_string(i));
    }
    io.u64("inj.corrupted_ticks", stats_.corrupted_ticks);
    io.u64("inj.corrupted_fields", stats_.corrupted_fields);
    io.u64("inj.actuator_faults", stats_.actuator_faults);
    io.u64("inj.dropped_ticks", stats_.dropped_ticks);
}

template void FaultInjector::state(obs::StateWriter&);
template void FaultInjector::state(obs::StateReader&);

}  // namespace yukta::fault
