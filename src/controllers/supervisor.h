#ifndef YUKTA_CONTROLLERS_SUPERVISOR_H_
#define YUKTA_CONTROLLERS_SUPERVISOR_H_

/**
 * @file
 * Runtime supervisor for the multilayer controller: validates every
 * sensor snapshot before the layer controllers see it, repairs short
 * fault bursts by substituting the last known-good values, and under
 * sustained faults walks a degradation ladder
 *
 *     kNominal -> kHold -> kFallback -> kSafe
 *
 *   kNominal   primaries (SSV/LQG/heuristic) run on validated input
 *   kHold      telemetry invalid: keep the last commands in force
 *   kFallback  still invalid past the hold budget: drive with the
 *              conservative coordinated heuristics instead of the
 *              model-based primaries
 *   kSafe      invalid past the fallback budget: clamp to the safe
 *              state (1 big core, minimum frequencies) which
 *              trivially satisfies the paper's P/T caps
 *
 * Recovery is hysteretic: each rung back up requires a full window of
 * consecutive healthy ticks, so alternating good/bad telemetry cannot
 * make the stack oscillate between modes. Every transition is logged
 * with its period, time, and reason; the log is deterministic for a
 * given fault schedule.
 */

#include <string>
#include <vector>

#include "controllers/controller.h"
#include "controllers/heuristics.h"
#include "platform/board.h"
#include "platform/config.h"
#include "platform/dvfs.h"
#include "platform/scheduler.h"
#include "platform/sensors.h"

namespace yukta::controllers {

/** The supervisor's degradation-ladder rungs. */
enum class SupervisorMode
{
    kNominal,  ///< Primary controllers in charge.
    kHold,     ///< Commands held; waiting out a short burst.
    kFallback, ///< Heuristic fallback controllers in charge.
    kSafe,     ///< Safe-state clamp in force.
};

/** @return a short stable name for @p mode ("nominal", ...). */
std::string supervisorModeName(SupervisorMode mode);

/** The highest rung; bounds a restored mode (obs/stateio.h, via ADL). */
constexpr SupervisorMode lastEnumerator(SupervisorMode)
{
    return SupervisorMode::kSafe;
}

/** Supervisor tuning knobs (ticks are 500 ms control periods). */
struct SupervisorConfig
{
    int hold_limit = 2;       ///< Bad ticks tolerated before fallback.
    int fallback_limit = 8;   ///< Bad ticks tolerated before safe.
    int recovery_ticks = 4;   ///< Healthy ticks per rung back up.
    int warmup_periods = 2;   ///< Ticks before floors are enforced
                              ///< (power windows start empty).
    int stuck_ticks = 3;      ///< Bit-identical analog readings in a
                              ///< row before "stuck" is declared.
    int reset_grace_ticks = 6; ///< Ticks after a controller reset
                               ///< (hot-swap, crash reboot) during
                               ///< which repeat/stale detectors are
                               ///< suspended: held or zeroed outputs
                               ///< legitimately freeze the telemetry.

    // Plausibility bounds; readings outside them are invalid even
    // when finite. Ceilings are the physical envelope of the cluster
    // (comfortably above any reachable operating point, but low
    // enough that a multiplicative spike stays implausible even when
    // the supervisor has already driven power down); floors catch
    // dropout (a powered cluster cannot draw ~zero watts, a heatsink
    // cannot read below ambient).
    double max_power_big = 6.0;      ///< W.
    double max_power_little = 1.0;   ///< W.
    double max_temp = 130.0;         ///< C.
    double min_power_big = 0.05;     ///< W (>= uncore floor).
    double min_power_little = 0.004; ///< W.
    double temp_floor_margin = 2.0;  ///< C below ambient tolerated.
};

/** One logged mode transition. */
struct SupervisorEvent
{
    int period = 0;      ///< Control-period index.
    double time = 0.0;   ///< Simulated seconds.
    SupervisorMode from = SupervisorMode::kNominal;
    SupervisorMode to = SupervisorMode::kNominal;
    std::string reason;  ///< Deterministic description.
};

/** Per-run supervisor summary + full event log. */
struct SupervisorReport
{
    std::vector<SupervisorEvent> events;
    long transition_count = 0;   ///< What run records report.
    long invalid_ticks = 0;      ///< Ticks with >= 1 invalid field.
    long repaired_fields = 0;    ///< Fields replaced by last-good.
    long repaired_commands = 0;  ///< Non-finite commands sanitized.
    long skipped_ticks = 0;      ///< Timing faults observed.
    double time_nominal = 0.0;   ///< Seconds per mode.
    double time_hold = 0.0;
    double time_fallback = 0.0;
    double time_safe = 0.0;

    /** @return total transition count (run records omit events). */
    long transitions() const { return transition_count; }

    /** @return seconds spent anywhere below kNominal. */
    double timeDegraded() const
    {
        return time_hold + time_fallback + time_safe;
    }
};

/** What the supervisor decided for one control tick. */
struct SupervisorDecision
{
    SupervisorMode mode = SupervisorMode::kNominal;
    // yukta-lint: allow(sensor-construction) sanitized pass-through
    platform::SensorReadings readings;  ///< Validated/repaired.
    bool reset_primaries = false;  ///< True on re-entry to kNominal.
};

/** Observation validator + degradation-ladder state machine. */
class Supervisor
{
  public:
    /** Builds the supervisor (and its fallbacks) for @p board_cfg. */
    explicit Supervisor(const platform::BoardConfig& board_cfg,
                        const SupervisorConfig& cfg = {});

    /**
     * Validates @p obs for the tick at (@p period, @p time), updates
     * the ladder, and returns the mode plus the sanitized readings
     * the controller stack must use. The returned readings are always
     * finite.
     */
    SupervisorDecision assess(int period, double time,
                              const platform::SensorReadings& obs);

    /** Fallback hardware controller (kFallback rung). */
    platform::HardwareInputs fallbackHardware(const HwSignals& s);

    /** Fallback OS controller (kFallback rung). */
    platform::PlacementPolicy fallbackPolicy(const OsSignals& s);

    /** Safe-state clamp: 1 big core, all littles, minimum freqs. */
    platform::HardwareInputs safeHardware() const;

    /** Safe-state placement: everything on the little cluster. */
    platform::PlacementPolicy safePolicy() const;

    /**
     * Last line of defense: @p cmd with any non-finite field replaced
     * by its safe-state value (counted as a repaired command). The
     * supervised stack therefore never emits NaN actuation.
     */
    platform::HardwareInputs guardHardware(const platform::HardwareInputs&
                                               cmd);

    /** Placement-side counterpart of guardHardware. */
    platform::PlacementPolicy guardPolicy(const platform::PlacementPolicy&
                                              cmd);

    /**
     * Records the placement command issued this tick. A big-cluster
     * instruction counter that stops advancing is only a fault when
     * the commanded placement keeps threads on the big cluster;
     * without this the safe state (0 big threads) would read as a
     * stale-counter fault and lock the ladder in kSafe forever.
     */
    void notePlacement(const platform::PlacementPolicy& commanded);

    /** Records a control tick lost to a timing fault. */
    void noteSkippedTick();

    /**
     * Declares that the controller stack's state was just reset
     * (hot-swap, crash reboot): for the next reset_grace_ticks the
     * exact-repeat ("stuck") and stale-counter detectors stand down.
     * A reset legitimately repeats or zeroes outputs for a few ticks,
     * which freezes the quantized telemetry bit-identically -- exactly
     * the signature those detectors exist to catch -- and without the
     * grace window the ladder false-trips on its own recovery.
     */
    void noteControllerReset();

    /**
     * Routes a controller hot-swap through the ladder: from kNominal
     * the mode drops to kHold (commands stay in force) and must earn
     * its way back up through the usual recovery window, so a fault
     * that lands mid-swap degrades exactly like any other invalid
     * streak. Also opens the reset grace window. From a degraded mode
     * only the grace window is opened.
     */
    void noteHotSwap(int period, double time, const std::string& reason);

    /**
     * Emits "supervisor" events (invalid ticks, ladder transitions)
     * to @p sink; nullptr detaches.
     */
    void attachTrace(obs::TraceSink* sink) { trace_ = sink; }

    /** @return the current rung. */
    SupervisorMode mode() const { return mode_; }

    /** @return the accumulated report (events + counters). */
    const SupervisorReport& report() const { return report_; }

    /** Resets ladder, counters, and event log between runs. */
    void reset();

    /**
     * Cold-reboot entry point for a board that just came back from a
     * crash (fleet board-crash fault domain): full reset, then the
     * ladder restarts at kSafe — a rebooted board must prove a
     * recovery window of healthy telemetry before the primaries take
     * over, exactly like recovery from sustained corruption. The
     * transition is logged at (@p period, @p time) with @p reason.
     */
    void coldBoot(int period, double time, const std::string& reason);

    /**
     * Writes or restores the full ladder + validator state
     * (obs/stateio.h): counters plus the events recorded so far.
     */
    template <class Io>
    void state(Io& io);

  private:
    platform::BoardConfig board_cfg_;
    SupervisorConfig cfg_;
    platform::DvfsTable big_;
    platform::DvfsTable little_;
    CoordinatedHwHeuristic fallback_hw_;
    CoordinatedOsHeuristic fallback_os_;

    SupervisorMode mode_ = SupervisorMode::kNominal;
    int consecutive_bad_ = 0;
    int consecutive_good_ = 0;
    bool have_good_ = false;
    // yukta-lint: allow(sensor-construction) hold-last-good store
    platform::SensorReadings last_good_;
    // yukta-lint: allow(sensor-construction) stuck-sensor detector
    platform::SensorReadings prev_obs_;
    bool have_prev_ = false;
    bool expect_big_activity_ = true;
    int stuck_streak_p_big_ = 0;
    int stuck_streak_p_little_ = 0;
    int stuck_streak_temp_ = 0;
    int reset_grace_ = 0;
    SupervisorReport report_;
    obs::TraceSink* trace_ = nullptr;

    std::string validate(int period, const platform::SensorReadings& obs,
                         platform::SensorReadings* repaired);
    void transition(int period, double time, SupervisorMode to,
                    const std::string& reason);
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_SUPERVISOR_H_
