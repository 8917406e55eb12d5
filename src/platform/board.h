#ifndef YUKTA_PLATFORM_BOARD_H_
#define YUKTA_PLATFORM_BOARD_H_

/**
 * @file
 * The simulated ODROID XU3 board: integrates DVFS, power, thermal,
 * sensors, the emergency TMU, thread placement, and a workload into a
 * discrete-time (1 ms) simulation. Controllers interact with it
 * exactly the way the paper's privileged processes interact with the
 * real board: set core counts / cluster frequencies (cpufreq +
 * hotplug), set thread placement (sched_setaffinity), and read the
 * slow power sensors, temperature, and perf counters.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "platform/config.h"
#include "platform/dvfs.h"
#include "platform/power_thermal.h"
#include "platform/scheduler.h"
#include "platform/sensors.h"
#include "platform/tmu.h"
#include "platform/workload.h"

namespace yukta::obs {
class TraceSink;
}  // namespace yukta::obs

namespace yukta::platform {

/** One row of the optional board trace. */
struct TraceSample
{
    double time = 0.0;       ///< s.
    double p_big = 0.0;      ///< True big-cluster power (W).
    double p_little = 0.0;   ///< True little-cluster power (W).
    double temp = 0.0;       ///< Hot-spot temperature (C).
    double bips = 0.0;       ///< Total BIPS over the last interval.
    double f_big = 0.0;      ///< Applied big frequency (GHz).
    double f_little = 0.0;   ///< Applied little frequency (GHz).
    std::size_t big_cores = 0;
    std::size_t little_cores = 0;
    std::size_t threads = 0;
    bool emergency = false;
};

/** Hardware-layer actuation request (the HW controller's inputs). */
struct HardwareInputs
{
    std::size_t big_cores = 4;     ///< Requested powered big cores.
    std::size_t little_cores = 4;  ///< Requested powered little cores.
    double freq_big = 2.0;         ///< Requested big frequency (GHz).
    double freq_little = 1.4;      ///< Requested little freq (GHz).
};

/** The simulated board. */
class Board
{
  public:
    /**
     * @param cfg board configuration.
     * @param workload workload to run.
     * @param seed sensor-noise seed (deterministic runs per seed).
     */
    Board(BoardConfig cfg, Workload workload, std::uint32_t seed = 1);

    // ------------------------------------------------------------
    // Actuation (what privileged controller processes can do).
    // ------------------------------------------------------------

    /** Requests DVFS + hotplug settings (quantized and clamped). */
    void applyHardwareInputs(const HardwareInputs& in);

    /** Requests a thread placement policy (OS layer actuation). */
    void applyPlacementPolicy(const PlacementPolicy& policy);

    // ------------------------------------------------------------
    // Simulation.
    // ------------------------------------------------------------

    /** Advances the simulation by @p seconds (multiple 1 ms steps). */
    void run(double seconds);

    /** @return true when the workload has completed. */
    bool done() const { return workload_.done(); }

    /** @return simulated seconds elapsed. */
    double elapsed() const { return time_; }

    /** @return joules consumed so far (both clusters). */
    double energy() const { return energy_; }

    /** @return Energy x Delay so far (J * s). */
    double energyDelay() const { return energy_ * time_; }

    // ------------------------------------------------------------
    // Observation (sensors + perf counters + OS bookkeeping).
    // ------------------------------------------------------------

    /** Sampled (sensor) big-cluster power, W. */
    double sensedPowerBig() const { return sensors_.powerBig(); }

    /** Sampled little-cluster power, W. */
    double sensedPowerLittle() const { return sensors_.powerLittle(); }

    /** Sampled hot-spot temperature, C. */
    double sensedTemperature() const { return sensors_.temperature(); }

    /**
     * One complete sensor snapshot (powers, temperature, cumulative
     * perf counters) — the observation boundary the fault layer
     * corrupts and the supervisor validates.
     */
    SensorReadings readings() const;

    /** Access to the sensor front-end (clamp counters, tests). */
    const Sensors& sensors() const { return sensors_; }

    /** True instantaneous values (for tracing / oracle tests). */
    double truePowerBig() const { return true_p_big_; }
    double truePowerLittle() const { return true_p_little_; }
    double trueTemperature() const { return thermal_.hotspot(); }

    /** Cumulative giga-instructions retired per cluster. */
    const PerfCounters& perfCounters() const { return counters_; }

    /** @return currently applied hardware state (after TMU caps). */
    const HardwareInputs& appliedHardware() const { return applied_; }

    /** @return the hardware state requested by the controller. */
    const HardwareInputs& requestedHardware() const { return requested_; }

    /** @return the active placement. */
    const Placement& placement() const { return placement_; }

    /** @return the policy currently in force. */
    const PlacementPolicy& placementPolicy() const { return policy_; }

    /** @return number of runnable threads. */
    std::size_t threadsRunning() const
    {
        return workload_.numRunnableThreads();
    }

    /** Spare compute capacity of a cluster (Eq. 2). */
    double spareCompute(ClusterId c) const;

    /** @return true when any emergency cap is in force. */
    bool emergencyActive() const { return tmu_.caps().active; }

    /** @return total emergency-active time (s). */
    double emergencyTime() const { return tmu_.emergencyTime(); }

    /**
     * @return total time (s) the *true* board state violated any of
     * the paper's operating constraints (P_big, P_little, or T over
     * their Sec. V-A limits). The robustness benches compare this
     * between supervised and unsupervised stacks.
     */
    double constraintViolationTime() const { return violation_time_; }

    /**
     * @return actuation requests rejected because a field was
     * non-finite (NaN/Inf); like a sysfs write of garbage, the
     * previous setting stays in force.
     */
    std::size_t rejectedInputCount() const { return rejected_inputs_; }

    /** Access to the DVFS tables (for controllers/heuristics). */
    const DvfsTable& dvfs(ClusterId c) const
    {
        return c == ClusterId::kBig ? dvfs_big_ : dvfs_little_;
    }

    /** Board configuration and workload state (read-only). */
    const BoardConfig& config() const { return cfg_; }
    const Workload& workload() const { return workload_; }

    /**
     * Scales the *true* cluster power by @p scale (> 0) from the next
     * step on -- a plant-parameter drift (silicon aging, cooling
     * degradation) that every downstream stage (energy, thermal, TMU,
     * sensors, violation accounting) sees, while the controller's
     * shipped model does not. Scale 1.0 restores the exact nominal
     * path (guarded, not multiplied).
     */
    void setPowerDriftScale(double scale);

    /** @return the active power drift scale (1.0 = nominal). */
    double powerDriftScale() const
    {
        return drift_active_ ? drift_scale_ : 1.0;
    }

    // ------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------

    /** Enables trace recording every @p interval seconds. */
    void enableTrace(double interval);

    /** @return the trace samples recorded so far. */
    const std::vector<TraceSample>& trace() const { return trace_; }

    /**
     * Emits "platform"/"tmu" events whenever the emergency caps
     * change, to @p sink; nullptr detaches.
     */
    void attachTraceSink(obs::TraceSink* sink) { event_trace_ = sink; }

    // ------------------------------------------------------------
    // Checkpointing.
    // ------------------------------------------------------------

    /**
     * Writes or restores the full mutable board state (physics,
     * sensors, TMU, workload progress, actuation, OS bookkeeping;
     * obs/stateio.h). A restore needs a board constructed from the
     * same config, workload, and seed, and rebuilds the derived step
     * table. Trace buffers are not serialized — fleet boards never
     * trace.
     */
    template <class Io>
    void state(Io& io);

  private:
    obs::TraceSink* event_trace_ = nullptr;
    BoardConfig cfg_;
    DvfsTable dvfs_big_;
    DvfsTable dvfs_little_;
    PowerModel power_big_;
    PowerModel power_little_;
    ThermalModel thermal_;
    Sensors sensors_;
    Tmu tmu_;
    Workload workload_;

    HardwareInputs requested_;
    HardwareInputs applied_;
    PlacementPolicy policy_;
    Placement placement_;
    std::size_t placement_version_ = static_cast<std::size_t>(-1);

    double time_ = 0.0;
    double energy_ = 0.0;
    double true_p_big_ = 0.0;
    double true_p_little_ = 0.0;
    double migration_stall_left_ = 0.0;
    double violation_time_ = 0.0;
    bool drift_active_ = false;   ///< Plant drift in force.
    double drift_scale_ = 1.0;    ///< True-power multiplier.
    std::size_t rejected_inputs_ = 0;
    PerfCounters counters_;

    /**
     * The step table: everything stepOnce needs that depends only on
     * the placement, the applied inputs (TMU caps included) and the
     * runnable set. Derived state, rebuilt by rebuildStepTable from
     * refreshPlacement's rebuilding branch and from a state() restore.
     */
    struct StepThread
    {
        ClusterId cluster = ClusterId::kBig;
        double rate = 0.0;      ///< Unstalled rate, giga-instr/s.
        double coupling = 0.0;  ///< Barrier coupling, [0, 1].
        double activity = 1.0;  ///< Switching activity.
        std::size_t instance = 0;  ///< Owning instance, capped at 15.
    };
    struct StepCluster
    {
        double util = 0.0;  ///< Mean busy fraction of powered cores.
        OperatingPoint op;  ///< Applied frequency and its voltage.
    };
    std::vector<StepThread> step_threads_;
    StepCluster step_big_;
    StepCluster step_little_;

    double trace_interval_ = 0.0;
    double trace_timer_ = 0.0;
    double trace_instr_mark_ = 0.0;
    std::vector<TraceSample> trace_;

    void stepOnce();
    void refreshApplied();
    void refreshPlacement(bool force);
    void rebuildStepTable();
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_BOARD_H_
