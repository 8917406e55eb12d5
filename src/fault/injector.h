#ifndef YUKTA_FAULT_INJECTOR_H_
#define YUKTA_FAULT_INJECTOR_H_

/**
 * @file
 * Deterministic runtime fault injection at the platform boundary.
 * The injector sits between the board and the controller stack
 * (controllers/multilayer.h): each control tick it may corrupt the
 * sensor snapshot on the way up, corrupt or discard actuation
 * commands on the way down, and drop whole ticks — exactly as its
 * FaultPlan schedules, and bit-reproducibly for a given plan (the
 * only randomness, spike jitter, comes from the plan's seed).
 */

#include <cstddef>
#include <random>
#include <vector>

#include "fault/plan.h"
#include "obs/mt19937.h"
#include "obs/stateio.h"
#include "platform/board.h"
#include "platform/scheduler.h"
#include "platform/sensors.h"

namespace yukta::obs {
class TraceSink;
}  // namespace yukta::obs

namespace yukta::fault {

/** Tally of what the injector actually did during a run. */
struct FaultStats
{
    std::size_t corrupted_ticks = 0;   ///< Ticks with >= 1 bad field.
    std::size_t corrupted_fields = 0;  ///< Sensor fields corrupted.
    std::size_t actuator_faults = 0;   ///< Commands altered/discarded.
    std::size_t dropped_ticks = 0;     ///< Control ticks skipped.
};

/** Executes one FaultPlan against one run's observation/actuation. */
class FaultInjector
{
  public:
    /** Binds the injector to @p plan; RNG is seeded from the plan. */
    explicit FaultInjector(FaultPlan plan);

    /** @return the schedule driving this injector. */
    const FaultPlan& plan() const { return plan_; }

    /**
     * @return true when the control tick at time @p t (the
     * @p period -th invocation) must be skipped per a timing fault.
     */
    bool dropTick(double t, int period);

    /** @return @p clean with all sensor faults active at @p t applied. */
    platform::SensorReadings
    corruptReadings(double t, const platform::SensorReadings& clean);

    /**
     * @return the hardware command that actually reaches the board at
     * @p t: @p cmd, possibly discarded (-> @p prev), blended, or with
     * DVFS writes latched, per active actuator faults.
     */
    platform::HardwareInputs
    corruptHardware(double t, const platform::HardwareInputs& prev,
                    const platform::HardwareInputs& cmd);

    /** Actuation-side counterpart for the placement policy. */
    platform::PlacementPolicy
    corruptPolicy(double t, const platform::PlacementPolicy& prev,
                  const platform::PlacementPolicy& cmd);

    /** @return what the injector has done so far. */
    const FaultStats& stats() const { return stats_; }

    /**
     * Emits "fault" events (sensor/actuator corruption, dropped
     * ticks) to @p sink; nullptr detaches.
     */
    void attachTrace(obs::TraceSink* sink) { trace_ = sink; }

    /**
     * Writes or restores RNG, latch, and tally state, not the plan
     * (obs/stateio.h); a restore needs the same plan.
     */
    template <class Io>
    void state(Io& io);

  private:
    obs::TraceSink* trace_ = nullptr;
    FaultPlan plan_;
    obs::Mt19937 rng_;
    std::uniform_real_distribution<double> jitter_{-1.0, 1.0};
    std::vector<char> latched_;  ///< Per-window: latch captured?
    std::vector<platform::SensorReadings> latch_;  ///< Entry snapshots.
    FaultStats stats_;

    bool corruptField(const FaultWindow& w, double& field,
                      double latched_value);
};

}  // namespace yukta::fault

#endif  // YUKTA_FAULT_INJECTOR_H_
