#ifndef YUKTA_CONTROLLERS_MULTILAYER_H_
#define YUKTA_CONTROLLERS_MULTILAYER_H_

/**
 * @file
 * The multilayer runtime harness (Fig. 4 / Fig. 7): wires a hardware
 * controller and a software controller (or one monolithic joint
 * controller) to the simulated board, invoking them every 500 ms and
 * ferrying the external signals between layers.
 *
 * Two optional stages sit at the platform boundary:
 *
 *   board -> [FaultInjector] -> [Supervisor] -> controllers
 *   controllers -> [Supervisor guard] -> [FaultInjector] -> board
 *
 * The injector (attachFaultInjector) deterministically corrupts the
 * observations and actuation per a FaultPlan; the supervisor
 * (enableSupervisor) validates what the controllers see and walks the
 * degradation ladder when telemetry goes bad.
 */

#include <memory>
#include <vector>

#include "controllers/batch_runtime.h"
#include "controllers/controller.h"
#include "controllers/layer_controllers.h"
#include "controllers/supervisor.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "platform/board.h"

namespace yukta::controllers {

/** Outcome of one experiment run. */
struct RunMetrics
{
    double exec_time = 0.0;   ///< Seconds until workload completion.
    double energy = 0.0;      ///< Joules.
    double exd = 0.0;         ///< Energy x Delay (J*s).
    bool completed = false;   ///< false = hit the time budget.
    double emergency_time = 0.0;  ///< Seconds with TMU caps in force.
    int periods = 0;          ///< Controller invocations.
    double violation_time = 0.0;  ///< Seconds any true P/T cap exceeded.
    bool supervised = false;      ///< Supervisor was active.
    fault::FaultStats faults;     ///< Injector tallies (zero if none).
    SupervisorReport supervisor;  ///< Ladder log (empty if none).
    std::vector<platform::TraceSample> trace;  ///< When tracing is on.
};

/** Two-layer (or monolithic) control system bound to a board. */
class MultilayerSystem
{
  public:
    /** Collaborative / decoupled two-layer arrangement. */
    MultilayerSystem(platform::Board board, std::unique_ptr<HwController> hw,
                     std::unique_ptr<OsController> os);

    /** Monolithic arrangement (one controller for both layers). */
    MultilayerSystem(platform::Board board,
                     std::unique_ptr<JointController> joint);

    /** Enables board tracing at @p interval seconds. */
    void enableTrace(double interval);

    /** Injects faults per @p plan at the platform boundary. */
    void attachFaultInjector(const fault::FaultPlan& plan);

    /** Wraps the controllers in a supervisor with @p cfg. */
    void enableSupervisor(const SupervisorConfig& cfg = {});

    /**
     * Attaches @p sink for per-tick structured event tracing and
     * propagates it to every stage (controllers, optimizers,
     * supervisor, injector, board). nullptr detaches everywhere.
     * Events are keyed by (tick, layer, kind) and simulated time
     * only, so a traced run is bit-reproducible.
     */
    void attachTraceSink(obs::TraceSink* sink);

    /** @return the attached trace sink (nullptr when untraced). */
    obs::TraceSink* traceSink() const { return sink_; }

    /**
     * Runs until the workload completes or @p max_seconds elapses.
     * Restarts the period clock, so repeated calls behave as before
     * the incremental API existed.
     */
    RunMetrics run(double max_seconds);

    /**
     * Advances exactly one 500 ms control period (controllers then
     * plant). The incremental form of run() for callers that
     * interleave many systems -- the fleet simulator steps every
     * board one period per epoch. Emits the same trace events in the
     * same order as run(), so a stepped run is byte-identical to a
     * monolithic one.
     */
    void stepPeriod();

    /**
     * First half of stepPeriod(): observation, supervision, and both
     * layer controllers' invocations. stepPeriodBegin() +
     * stepPeriodFinish() is stepPeriod() minus its profile scope; the
     * split lets a caller time the controllers apart from the plant.
     *
     * @p batch is ignored: the parameter is kept only for
     * perfbench/traced.cpp, and a later benchmark change retires it.
     */
    void stepPeriodBegin(BatchRuntime* batch = nullptr);

    /**
     * Second half of stepPeriod(): supervisor guards, actuation, and
     * the plant step.
     * @throws std::logic_error without a prior stepPeriodBegin().
     */
    void stepPeriodFinish();

    /** @return metrics accumulated since the period clock restarted. */
    RunMetrics metrics() const;

    /** Control periods stepped since the clock restarted. */
    int periods() const { return periods_; }

    /**
     * Forwards @p targets ([BIPS, P_big, P_little, T]) to the
     * hardware-layer controller -- the hook a cluster controller uses
     * to set this board's operating point. @return false when the
     * arrangement has no compatible hardware controller (monolithic
     * joint loop, heuristics).
     */
    bool holdHwTargets(const linalg::Vector& targets);

    /**
     * Hot-swaps a freshly synthesized SSV hardware runtime into the
     * running system with bumpless transfer: the incoming runtime is
     * armed to repeat the hardware command currently in force, and
     * when a supervisor is attached the ladder drops to kHold and
     * re-earns kNominal tick by tick, so a fault landing mid-swap
     * degrades like any other invalid streak. Emits an "adapt"/"swap"
     * trace event when a sink is attached.
     * @return false when the hardware layer is not an SsvHwController
     * (LQG / heuristic / monolithic arrangements).
     */
    bool hotSwapHwRuntime(SsvRuntime runtime);

    /**
     * Raw hardware-runtime replacement for checkpoint restore:
     * installs the runtime without bumpless arming or ladder routing
     * (the restored state stream carries the exact post-swap state).
     * Must be called before restoring state() so the sizes match.
     */
    bool installHwRuntime(SsvRuntime runtime);

    /**
     * The hardware command and placement policy currently in force
     * (what applyIfChanged last pushed to the board). The fleet's
     * adaptation loop samples these as the plant inputs.
     */
    const platform::HardwareInputs& lastHardware() const
    {
        return last_hw_;
    }
    /** @return the last placement policy applied to the board. */
    const platform::PlacementPolicy& lastPolicy() const
    {
        return last_policy_;
    }

    /** Access to the simulated board (inspection in tests/benches). */
    platform::Board& board() { return board_; }
    const platform::Board& board() const { return board_; }

    /** Supervisor, or nullptr when not enabled. */
    const Supervisor* supervisor() const { return supervisor_.get(); }

    /** Mutable supervisor access (fleet cold-boot), or nullptr. */
    Supervisor* supervisor() { return supervisor_.get(); }

    /**
     * Writes or restores the full system state — board, both layer
     * controllers (or the joint one), injector, supervisor, and the
     * harness's own inter-period memory (obs/stateio.h). A restore
     * needs a system constructed with the same board config,
     * workload, scheme, and attachments.
     */
    template <class Io>
    void state(Io& io);

  private:
    platform::Board board_;
    std::unique_ptr<HwController> hw_;
    std::unique_ptr<OsController> os_;
    std::unique_ptr<JointController> joint_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<Supervisor> supervisor_;
    obs::TraceSink* sink_ = nullptr;

    platform::HardwareInputs last_hw_;
    platform::PlacementPolicy last_policy_;
    double last_instr_total_ = 0.0;
    double last_instr_big_ = 0.0;
    double last_instr_little_ = 0.0;
    double t_ = 0.0;
    int periods_ = 0;

    /** In-flight period between stepPeriodBegin and stepPeriodFinish. */
    struct PendingTick
    {
        bool in_progress = false;
        bool dropped = false;      ///< Injector timing fault this tick.
        SupervisorMode mode = SupervisorMode::kNominal;
        platform::HardwareInputs hw_in;
        platform::PlacementPolicy policy;
        double instr_big = 0.0;    ///< Observation-space marks.
        double instr_little = 0.0;
    };
    PendingTick pending_;

    HwSignals gatherHw(const platform::SensorReadings& obs) const;
    OsSignals gatherOs(const platform::SensorReadings& obs) const;
    void applyIfChanged(const platform::HardwareInputs& hw,
                        const platform::PlacementPolicy& policy);
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_MULTILAYER_H_
