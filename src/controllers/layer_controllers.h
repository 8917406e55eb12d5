#ifndef YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_
#define YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_

/**
 * @file
 * Concrete layer controllers: SSV- and LQG-based hardware / OS
 * controllers (each paired with an E x D target optimizer, Fig. 5),
 * and the monolithic LQG controller that manages both layers at once
 * (Sec. VI-B).
 */

#include <utility>

#include "controllers/controller.h"
#include "controllers/lqg_runtime.h"
#include "controllers/optimizer.h"
#include "controllers/ssv_runtime.h"

namespace yukta::controllers {

/**
 * Builds the default hardware-layer optimizer: maximize BIPS, budget
 * the two cluster powers below the board limits, hold temperature.
 */
ExdOptimizer makeHwOptimizer(const platform::BoardConfig& cfg);

/** Default OS-layer optimizer: maximize per-cluster BIPS, hold dSC. */
ExdOptimizer makeOsOptimizer();

/** Optimizer for the monolithic LQG: all seven targets in one walk. */
ExdOptimizer makeMonolithicOptimizer(const platform::BoardConfig& cfg);

/** SSV hardware controller (Sec. IV-A) + optimizer. */
class SsvHwController : public HwController
{
  public:
    /** Takes ownership of the synthesized runtime and optimizer. */
    SsvHwController(SsvRuntime runtime, ExdOptimizer optimizer);

    /** HwController hooks: one control period; reset clears state. */
    platform::HardwareInputs invoke(const HwSignals& s) override;
    void reset() override;

    /** Emits per-tick "hw"/"ssv" events to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override;

    /** Read access to the wrapped runtime and optimizer. */
    const SsvRuntime& runtime() const { return runtime_; }
    const ExdOptimizer& optimizer() const { return optimizer_; }

    /** Overrides the optimizer with fixed output targets. */
    bool holdTargets(const linalg::Vector& targets) override;

    /**
     * Replaces the wrapped runtime with a freshly synthesized one,
     * arming bumpless transfer against @p u_prev -- the physical
     * command in force at the swap tick. The optimizer and its walked
     * targets persist: the operating point outlives the controller
     * generation.
     */
    void swapRuntime(SsvRuntime runtime, const linalg::Vector& u_prev);

    /**
     * Raw runtime replacement for checkpoint restore: no bumpless
     * arming (the restored state stream carries the exact post-swap
     * runtime state, including any still-pending arm).
     */
    void installRuntime(SsvRuntime runtime);

    /** Checkpoint hooks: runtime + optimizer + hold state. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    SsvRuntime runtime_;
    ExdOptimizer optimizer_;
    linalg::Vector held_targets_;
    bool hold_ = false;
    obs::TraceSink* trace_ = nullptr;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        runtime_.state(io);
        optimizer_.state(io);
        io.f64vec("ctl.held_targets", held_targets_.raw());
        io.boolean("ctl.hold", hold_);
    }
};

/** SSV software controller (Sec. IV-B) + optimizer. */
class SsvOsController : public OsController
{
  public:
    /** Takes ownership of the synthesized runtime and optimizer. */
    SsvOsController(SsvRuntime runtime, ExdOptimizer optimizer);

    /** OsController hooks: one control period; reset clears state. */
    platform::PlacementPolicy invoke(const OsSignals& s) override;
    void reset() override;

    /** Emits per-tick "os"/"ssv" events to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override;

    /** Read access to the wrapped runtime and optimizer. */
    const SsvRuntime& runtime() const { return runtime_; }
    const ExdOptimizer& optimizer() const { return optimizer_; }

    /** Overrides the optimizer with fixed output targets. */
    bool holdTargets(const linalg::Vector& targets) override;

    /** Checkpoint hooks: runtime + optimizer + hold state. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    SsvRuntime runtime_;
    ExdOptimizer optimizer_;
    linalg::Vector held_targets_;
    bool hold_ = false;
    obs::TraceSink* trace_ = nullptr;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        runtime_.state(io);
        optimizer_.state(io);
        io.f64vec("ctl.held_targets", held_targets_.raw());
        io.boolean("ctl.hold", hold_);
    }
};

/** Decoupled-LQG hardware controller (no external signals). */
class LqgHwController : public HwController
{
  public:
    /** Takes ownership of the synthesized runtime and optimizer. */
    LqgHwController(LqgRuntime runtime, ExdOptimizer optimizer);

    /** HwController hooks: one control period; reset clears state. */
    platform::HardwareInputs invoke(const HwSignals& s) override;
    void reset() override;

    /** Emits per-tick "hw"/"lqg" events to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override;

    /** Read access to the wrapped runtime and optimizer. */
    const LqgRuntime& runtime() const { return runtime_; }
    const ExdOptimizer& optimizer() const { return optimizer_; }

    /** Overrides the optimizer with fixed output targets. */
    bool holdTargets(const linalg::Vector& targets) override;

    /** Checkpoint hooks: runtime + optimizer + hold state. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    LqgRuntime runtime_;
    ExdOptimizer optimizer_;
    linalg::Vector held_targets_;
    bool hold_ = false;
    obs::TraceSink* trace_ = nullptr;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        runtime_.state(io);
        optimizer_.state(io);
        io.f64vec("ctl.held_targets", held_targets_.raw());
        io.boolean("ctl.hold", hold_);
    }
};

/** Decoupled-LQG software controller. */
class LqgOsController : public OsController
{
  public:
    /** Takes ownership of the synthesized runtime and optimizer. */
    LqgOsController(LqgRuntime runtime, ExdOptimizer optimizer);

    /** OsController hooks: one control period; reset clears state. */
    platform::PlacementPolicy invoke(const OsSignals& s) override;
    void reset() override;

    /** Emits per-tick "os"/"lqg" events to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override;

    /** Read access to the wrapped runtime. */
    const LqgRuntime& runtime() const { return runtime_; }

    /** Checkpoint hooks: runtime + optimizer. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    LqgRuntime runtime_;
    ExdOptimizer optimizer_;
    obs::TraceSink* trace_ = nullptr;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        runtime_.state(io);
        optimizer_.state(io);
    }
};

/** Controller that manages both layers from one loop. */
class JointController
{
  public:
    virtual ~JointController() = default;

    /** One joint invocation: both layers' commands from one loop. */
    virtual std::pair<platform::HardwareInputs, platform::PlacementPolicy>
    invoke(const HwSignals& hw, const OsSignals& os) = 0;

    /** Resets internal state between runs. */
    virtual void reset() {}

    /** Attaches @p sink for per-tick event tracing (nullptr detaches). */
    virtual void attachTrace(obs::TraceSink* sink) { (void)sink; }

    /** Checkpoint hooks, as HwController's (default: no state). */
    virtual void state(obs::StateWriter& w) { (void)w; }
    virtual void state(obs::StateReader& r) { (void)r; }
};

/**
 * Monolithic LQG (Sec. VI-B): one LQG loop over all seven outputs
 * {BIPS, P_big, P_little, T, BIPS_big, BIPS_little, dSC} and all
 * seven inputs {cores/freqs, placement knobs}.
 */
class MonolithicLqgController : public JointController
{
  public:
    /** Takes ownership of the synthesized runtime and optimizer. */
    MonolithicLqgController(LqgRuntime runtime, ExdOptimizer optimizer);

    /** One joint control period over all seven outputs. */
    std::pair<platform::HardwareInputs, platform::PlacementPolicy>
    invoke(const HwSignals& hw, const OsSignals& os) override;
    /** Resets the LQG state between runs. */
    void reset() override;

    /** Emits per-tick "joint"/"lqg" events to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override;

    /** Read access to the wrapped runtime. */
    const LqgRuntime& runtime() const { return runtime_; }

    /** Checkpoint hooks: runtime + optimizer. */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    LqgRuntime runtime_;
    ExdOptimizer optimizer_;
    obs::TraceSink* trace_ = nullptr;

    /** The field list behind both state() overloads. */
    template <class Io>
    void fields(Io& io)
    {
        runtime_.state(io);
        optimizer_.state(io);
    }
};

/** E x D proxy metric (Power / Perf^2) used by the optimizers. */
double exdMetric(double total_power, double bips);

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_
