#include "controllers/supervisor.h"

#include <cmath>
#include <utility>

#include "core/contracts.h"
#include "obs/trace.h"

namespace yukta::controllers {

using platform::HardwareInputs;
using platform::PlacementPolicy;
using platform::SensorReadings;

std::string
supervisorModeName(SupervisorMode mode)
{
    switch (mode) {
      case SupervisorMode::kNominal:
        return "nominal";
      case SupervisorMode::kHold:
        return "hold";
      case SupervisorMode::kFallback:
        return "fallback";
      case SupervisorMode::kSafe:
        return "safe";
    }
    return "unknown";
}

Supervisor::Supervisor(const platform::BoardConfig& board_cfg,
                       const SupervisorConfig& cfg)
    : board_cfg_(board_cfg), cfg_(cfg), big_(board_cfg.big),
      little_(board_cfg.little),
      fallback_hw_(board_cfg, big_, little_), fallback_os_(board_cfg)
{
    reset();
}

void
Supervisor::reset()
{
    mode_ = SupervisorMode::kNominal;
    consecutive_bad_ = 0;
    consecutive_good_ = 0;
    have_good_ = false;
    last_good_ = SensorReadings{};  // yukta-lint: allow(sensor-construction)
    last_good_.temp = board_cfg_.thermal.ambient;
    stuck_streak_p_big_ = 0;
    stuck_streak_p_little_ = 0;
    stuck_streak_temp_ = 0;
    reset_grace_ = 0;
    have_prev_ = false;
    expect_big_activity_ = true;
    report_ = SupervisorReport{};
    fallback_hw_.reset();
    fallback_os_.reset();
}

void
Supervisor::coldBoot(int period, double time, const std::string& reason)
{
    reset();
    transition(period, time, SupervisorMode::kSafe, reason);
    // A rebooted board restarts its controllers from scratch; the
    // first post-boot ticks repeat the safe-state commands, which must
    // not read as stuck sensors.
    noteControllerReset();
}

void
Supervisor::noteControllerReset()
{
    reset_grace_ = cfg_.reset_grace_ticks;
    stuck_streak_p_big_ = 0;
    stuck_streak_p_little_ = 0;
    stuck_streak_temp_ = 0;
}

void
Supervisor::noteHotSwap(int period, double time, const std::string& reason)
{
    noteControllerReset();
    if (mode_ == SupervisorMode::kNominal) {
        transition(period, time, SupervisorMode::kHold, reason);
        consecutive_good_ = 0;
    }
}

template <class Io>
void
Supervisor::state(Io& io)
{
    io.u64("sup.mode", mode_);
    io.i64("sup.consecutive_bad", consecutive_bad_);
    io.i64("sup.consecutive_good", consecutive_good_);
    io.boolean("sup.have_good", have_good_);
    last_good_.state(io, "sup.last_good");
    prev_obs_.state(io, "sup.prev_obs");
    io.boolean("sup.have_prev", have_prev_);
    io.boolean("sup.expect_big_activity", expect_big_activity_);
    io.i64("sup.stuck_p_big", stuck_streak_p_big_);
    io.i64("sup.stuck_p_little", stuck_streak_p_little_);
    io.i64("sup.stuck_temp", stuck_streak_temp_);
    io.i64("sup.reset_grace", reset_grace_);

    io.count("sup.events", report_.events);
    for (std::size_t i = 0; i < report_.events.size(); ++i) {
        SupervisorEvent& e = report_.events[i];
        const std::string p = "sup.e" + std::to_string(i);
        io.i64(p + ".period", e.period);
        io.f64(p + ".time", e.time);
        io.u64(p + ".from", e.from);
        io.u64(p + ".to", e.to);
        io.str(p + ".reason", e.reason);
    }
    io.i64("sup.transition_count", report_.transition_count);
    io.i64("sup.invalid_ticks", report_.invalid_ticks);
    io.i64("sup.repaired_fields", report_.repaired_fields);
    io.i64("sup.repaired_commands", report_.repaired_commands);
    io.i64("sup.skipped_ticks", report_.skipped_ticks);
    io.f64("sup.time_nominal", report_.time_nominal);
    io.f64("sup.time_hold", report_.time_hold);
    io.f64("sup.time_fallback", report_.time_fallback);
    io.f64("sup.time_safe", report_.time_safe);

    fallback_hw_.state(io);
}

template void Supervisor::state(obs::StateWriter&);
template void Supervisor::state(obs::StateReader&);

namespace {

/** Appends "field:why" to the (comma-joined) reason list. */
void
note(std::string& reasons, const char* field, const char* why)
{
    if (!reasons.empty()) {
        reasons += ",";
    }
    reasons += field;
    reasons += ":";
    reasons += why;
}

}  // namespace

std::string
Supervisor::validate(int period, const SensorReadings& obs,
                     SensorReadings* repaired)
{
    std::string reasons;
    *repaired = obs;
    const bool warm = period >= cfg_.warmup_periods;
    const double ambient = board_cfg_.thermal.ambient;

    // Exact-repeat streaks: the analog sensors are noisy (new power
    // window every 260 ms, new temperature sample every 100 ms), so a
    // bit-identical value across several ticks means the sensor is
    // stuck, even though each individual reading looks plausible.
    // Inside the post-reset grace window repeats are legitimate (held
    // or zeroed commands freeze the plant), so they are not evidence
    // of a stuck sensor and the streaks stay cleared.
    if (have_prev_ && reset_grace_ == 0) {
        stuck_streak_p_big_ = obs.p_big == prev_obs_.p_big
                                  ? stuck_streak_p_big_ + 1
                                  : 0;
        stuck_streak_p_little_ = obs.p_little == prev_obs_.p_little
                                     ? stuck_streak_p_little_ + 1
                                     : 0;
        stuck_streak_temp_ =
            obs.temp == prev_obs_.temp ? stuck_streak_temp_ + 1 : 0;
    } else if (reset_grace_ > 0) {
        stuck_streak_p_big_ = 0;
        stuck_streak_p_little_ = 0;
        stuck_streak_temp_ = 0;
    }
    prev_obs_ = obs;
    have_prev_ = true;

    auto repair = [&](double& field, double good) {
        field = good;
        ++report_.repaired_fields;
    };

    // --- Big-cluster power. ---
    if (!contracts::yuktaAllFinite(obs.p_big)) {
        note(reasons, "p_big", "non-finite");
        repair(repaired->p_big, last_good_.p_big);
    } else if (obs.p_big > cfg_.max_power_big) {
        note(reasons, "p_big", "implausible-high");
        repair(repaired->p_big, last_good_.p_big);
    } else if (warm && obs.p_big < cfg_.min_power_big) {
        note(reasons, "p_big", "implausible-low");
        repair(repaired->p_big, last_good_.p_big);
    } else if (warm && stuck_streak_p_big_ >= cfg_.stuck_ticks) {
        note(reasons, "p_big", "stuck");
        repair(repaired->p_big, last_good_.p_big);
    }

    // --- Little-cluster power. ---
    if (!contracts::yuktaAllFinite(obs.p_little)) {
        note(reasons, "p_little", "non-finite");
        repair(repaired->p_little, last_good_.p_little);
    } else if (obs.p_little > cfg_.max_power_little) {
        note(reasons, "p_little", "implausible-high");
        repair(repaired->p_little, last_good_.p_little);
    } else if (warm && obs.p_little < cfg_.min_power_little) {
        note(reasons, "p_little", "implausible-low");
        repair(repaired->p_little, last_good_.p_little);
    } else if (warm && stuck_streak_p_little_ >= cfg_.stuck_ticks) {
        note(reasons, "p_little", "stuck");
        repair(repaired->p_little, last_good_.p_little);
    }

    // --- Temperature. ---
    if (!contracts::yuktaAllFinite(obs.temp)) {
        note(reasons, "temp", "non-finite");
        repair(repaired->temp, last_good_.temp);
    } else if (obs.temp > cfg_.max_temp) {
        note(reasons, "temp", "implausible-high");
        repair(repaired->temp, last_good_.temp);
    } else if (obs.temp < ambient - cfg_.temp_floor_margin) {
        note(reasons, "temp", "below-ambient");
        repair(repaired->temp, last_good_.temp);
    } else if (warm && stuck_streak_temp_ >= cfg_.stuck_ticks) {
        note(reasons, "temp", "stuck");
        repair(repaired->temp, last_good_.temp);
    }

    // --- Instruction counters: finite, monotone, advancing. ---
    if (!contracts::yuktaAllFinite(obs.instr_big)) {
        note(reasons, "instr_big", "non-finite");
        repair(repaired->instr_big, last_good_.instr_big);
    } else if (have_good_ && obs.instr_big < last_good_.instr_big) {
        note(reasons, "instr_big", "counter-reset");
        repair(repaired->instr_big, last_good_.instr_big);
    } else if (warm && have_good_ && expect_big_activity_ &&
               reset_grace_ == 0 &&
               obs.instr_big <= last_good_.instr_big) {
        note(reasons, "instr_big", "stale");
        repair(repaired->instr_big, last_good_.instr_big);
    }
    if (!contracts::yuktaAllFinite(obs.instr_little)) {
        note(reasons, "instr_little", "non-finite");
        repair(repaired->instr_little, last_good_.instr_little);
    } else if (have_good_ && obs.instr_little < last_good_.instr_little) {
        note(reasons, "instr_little", "counter-reset");
        repair(repaired->instr_little, last_good_.instr_little);
    }

    return reasons;
}

void
Supervisor::transition(int period, double time, SupervisorMode to,
                       const std::string& reason)
{
    SupervisorEvent e;
    e.period = period;
    e.time = time;
    e.from = mode_;
    e.to = to;
    e.reason = reason;
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent("supervisor", "transition");
        ev.str("from", supervisorModeName(e.from))
            .str("to", supervisorModeName(e.to))
            .integer("period", e.period)
            .integer("bad_streak", consecutive_bad_)
            .integer("good_streak", consecutive_good_)
            .str("reason", e.reason);
        trace_->record(std::move(ev));
    }
    report_.events.push_back(std::move(e));
    ++report_.transition_count;
    mode_ = to;
}

SupervisorDecision
Supervisor::assess(int period, double time, const SensorReadings& obs)
{
    SupervisorDecision decision;
    const std::string reasons = validate(period, obs, &decision.readings);
    const bool bad = !reasons.empty();

    if (bad) {
        ++consecutive_bad_;
        consecutive_good_ = 0;
        ++report_.invalid_ticks;
        if (trace_ != nullptr) {
            obs::TraceEvent ev = trace_->makeEvent("supervisor", "invalid");
            ev.str("mode", supervisorModeName(mode_))
                .integer("bad_streak", consecutive_bad_)
                .str("reasons", reasons);
            trace_->record(std::move(ev));
        }
    } else {
        ++consecutive_good_;
        consecutive_bad_ = 0;
        last_good_ = obs;
        have_good_ = true;
    }

    if (bad) {
        switch (mode_) {
          case SupervisorMode::kNominal:
            transition(period, time, SupervisorMode::kHold, reasons);
            break;
          case SupervisorMode::kHold:
            if (consecutive_bad_ > cfg_.hold_limit) {
                transition(period, time, SupervisorMode::kFallback,
                           reasons);
                fallback_hw_.reset();
            }
            break;
          case SupervisorMode::kFallback:
            if (consecutive_bad_ > cfg_.fallback_limit) {
                transition(period, time, SupervisorMode::kSafe, reasons);
            }
            break;
          case SupervisorMode::kSafe:
            break;
        }
    } else if (mode_ != SupervisorMode::kNominal &&
               consecutive_good_ >= cfg_.recovery_ticks) {
        // Hysteretic recovery: one rung per full window of healthy
        // ticks; the counter restarts so each rung is re-earned.
        SupervisorMode up = SupervisorMode::kNominal;
        if (mode_ == SupervisorMode::kSafe) {
            up = SupervisorMode::kFallback;
            fallback_hw_.reset();
        } else if (mode_ == SupervisorMode::kFallback) {
            up = SupervisorMode::kHold;
        }
        transition(period, time, up,
                   "telemetry healthy for " +
                       std::to_string(cfg_.recovery_ticks) + " ticks");
        consecutive_good_ = 0;
        if (up == SupervisorMode::kNominal) {
            decision.reset_primaries = true;
        }
    }

    switch (mode_) {
      case SupervisorMode::kNominal:
        report_.time_nominal += kControlPeriod;
        break;
      case SupervisorMode::kHold:
        report_.time_hold += kControlPeriod;
        break;
      case SupervisorMode::kFallback:
        report_.time_fallback += kControlPeriod;
        break;
      case SupervisorMode::kSafe:
        report_.time_safe += kControlPeriod;
        break;
    }

    if (reset_grace_ > 0) {
        --reset_grace_;
    }

    decision.mode = mode_;
    YUKTA_CHECK_FINITE(decision.readings,
                       "supervisor must hand controllers finite telemetry");
    return decision;
}

HardwareInputs
Supervisor::fallbackHardware(const HwSignals& s)
{
    return fallback_hw_.invoke(s);
}

PlacementPolicy
Supervisor::fallbackPolicy(const OsSignals& s)
{
    return fallback_os_.invoke(s);
}

HardwareInputs
Supervisor::safeHardware() const
{
    HardwareInputs safe;
    safe.big_cores = 1;
    safe.little_cores = board_cfg_.little.num_cores;
    safe.freq_big = big_.minFreq();
    safe.freq_little = little_.minFreq();
    return safe;
}

PlacementPolicy
Supervisor::safePolicy() const
{
    PlacementPolicy safe;
    safe.threads_big = 0.0;
    safe.tpc_big = 1.0;
    safe.tpc_little =
        static_cast<double>(board_cfg_.little.num_cores);
    return safe;
}

HardwareInputs
Supervisor::guardHardware(const HardwareInputs& cmd)
{
    HardwareInputs out = cmd;
    const HardwareInputs safe = safeHardware();
    if (!std::isfinite(out.freq_big)) {
        out.freq_big = safe.freq_big;
        ++report_.repaired_commands;
    }
    if (!std::isfinite(out.freq_little)) {
        out.freq_little = safe.freq_little;
        ++report_.repaired_commands;
    }
    return out;
}

PlacementPolicy
Supervisor::guardPolicy(const PlacementPolicy& cmd)
{
    PlacementPolicy out = cmd;
    const PlacementPolicy safe = safePolicy();
    if (!std::isfinite(out.threads_big)) {
        out.threads_big = safe.threads_big;
        ++report_.repaired_commands;
    }
    if (!std::isfinite(out.tpc_big)) {
        out.tpc_big = safe.tpc_big;
        ++report_.repaired_commands;
    }
    if (!std::isfinite(out.tpc_little)) {
        out.tpc_little = safe.tpc_little;
        ++report_.repaired_commands;
    }
    return out;
}

void
Supervisor::notePlacement(const PlacementPolicy& commanded)
{
    expect_big_activity_ = commanded.threads_big >= 0.5;
}

void
Supervisor::noteSkippedTick()
{
    ++report_.skipped_ticks;
}

}  // namespace yukta::controllers
