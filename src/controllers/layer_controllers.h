#ifndef YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_
#define YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_

/**
 * @file
 * The model-based layer controllers. Every one runs the same loop
 * (Fig. 5, Sec. IV): an E x D optimizer walks the layer's output
 * targets and a runtime turns each target deviation into actuation.
 * ModelController holds that loop once. A layer struct says what one
 * layer reads and commands; the runtimeStep() overloads say what
 * differs between the SSV runtime and the Sec. VI-B LQG baselines.
 * The five concrete controllers are aliases at the end.
 */

#include <optional>
#include <type_traits>
#include <utility>

#include "controllers/controller.h"
#include "controllers/lqg_runtime.h"
#include "controllers/optimizer.h"
#include "controllers/ssv_runtime.h"
#include "obs/trace.h"

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

/** E x D proxy metric (Power / Perf^2) used by the optimizers. */
double exdMetric(double total_power, double bips);

/**
 * The hardware layer (Table II). Its external signals are the OS
 * layer's three placement knobs.
 */
struct HwLayer
{
    using Signals = HwSignals;
    using Command = platform::HardwareInputs;
    static constexpr const char* kTraceLayer = "hw";
    static constexpr const char* kOptimizerLayer = "opt-hw";

    /** y = {BIPS, P_big, P_little, T}. */
    static linalg::Vector outputs(const Signals& s)
    {
        return {s.perf_bips, s.p_big, s.p_little, s.temp};
    }
    /** External signals {threads_big, tpc_big, tpc_little}. */
    static linalg::Vector external(const Signals& s)
    {
        return {s.threads_big, s.tpc_big, s.tpc_little};
    }
    /** E x D of the board power and total BIPS. */
    static double metric(const Signals& s)
    {
        return exdMetric(s.p_big + s.p_little, s.perf_bips);
    }
    /** Maps u = {#big, #little, f_big, f_little} to the command. */
    static Command command(const linalg::Vector& u, const Signals& s);
};

/**
 * The OS layer (Table III). Its external signals are the hardware
 * layer's four inputs.
 */
struct OsLayer
{
    using Signals = OsSignals;
    using Command = platform::PlacementPolicy;
    static constexpr const char* kTraceLayer = "os";
    static constexpr const char* kOptimizerLayer = "opt-os";

    /** y = {BIPS_big, BIPS_little, dSC}. */
    static linalg::Vector outputs(const Signals& s)
    {
        return {s.perf_big, s.perf_little, s.d_spare};
    }
    /** External signals {#big, #little, f_big, f_little}. */
    static linalg::Vector external(const Signals& s)
    {
        return {s.big_cores, s.little_cores, s.freq_big, s.freq_little};
    }
    /** E x D of the sensed board power and both clusters' BIPS. */
    static double metric(const Signals& s)
    {
        return exdMetric(s.total_power, s.perf_big + s.perf_little);
    }
    /** Maps u = {threads_big, tpc_big, tpc_little} to the policy. */
    static Command command(const linalg::Vector& u, const Signals& s);
};

/**
 * Both layers as one loop (the monolithic LQG, Sec. VI-B): the
 * hardware layer's outputs and inputs, then the OS layer's. No
 * external signals.
 */
struct JointLayer
{
    using Signals = JointSignals;
    using Command =
        std::pair<platform::HardwareInputs, platform::PlacementPolicy>;
    static constexpr const char* kTraceLayer = "joint";
    static constexpr const char* kOptimizerLayer = "opt-joint";

    /** y = the hardware layer's four outputs, then the OS layer's three. */
    static linalg::Vector outputs(const Signals& s)
    {
        return {s.hw.perf_bips, s.hw.p_big,       s.hw.p_little,
                s.hw.temp,      s.os.perf_big,    s.os.perf_little,
                s.os.d_spare};
    }
    /** The hardware layer's E x D. */
    static double metric(const Signals& s) { return HwLayer::metric(s.hw); }
    /** Maps u[0..3] to the hardware command and u[4..6] to placement. */
    static Command command(const linalg::Vector& u, const Signals& s);
};

/** Trace event kind of each runtime. */
inline const char* traceKind(const SsvRuntime&) { return "ssv"; }
inline const char* traceKind(const LqgRuntime&) { return "lqg"; }

/**
 * One SSV step of @p Layer: the deviations @p dy = targets - y plus
 * the layer's external signals. With @p ev non-null, appends the SSV
 * trace fields after "y" and "targets".
 */
template <class Layer>
linalg::Vector
runtimeStep(SsvRuntime& rt, const linalg::Vector& dy,
            const typename Layer::Signals& s, obs::TraceEvent* ev)
{
    const linalg::Vector ext = Layer::external(s);
    SsvInvokeInfo info;
    linalg::Vector u = rt.invoke(dy, ext, ev != nullptr ? &info : nullptr);
    if (ev != nullptr) {
        ev->vec("dy", info.dy.raw())
            .vec("ext", ext.raw())
            .vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated)
            .flags("quant", info.quantized);
    }
    return u;
}

/** One LQG step: the deviations only (no external-signal channel). */
template <class Layer>
linalg::Vector
runtimeStep(LqgRuntime& rt, const linalg::Vector& dy,
            const typename Layer::Signals& s, obs::TraceEvent* ev)
{
    (void)s;
    LqgInvokeInfo info;
    linalg::Vector u = rt.invoke(dy, ev != nullptr ? &info : nullptr);
    if (ev != nullptr) {
        ev->vec("x", info.x.raw())
            .vec("u_raw", info.u_raw.raw())
            .vec("u", u.raw())
            .flags("sat", info.saturated);
    }
    return u;
}

/**
 * A model-based controller for @p Layer: each period it takes the held
 * targets or lets the optimizer step them, passes targets - y to the
 * runtime, emits one "<layer>"/"<runtime>" trace event, and maps the
 * runtime's u to the layer's command.
 */
template <class Runtime, class Layer>
class ModelController
    : public LayerController<typename Layer::Signals,
                             typename Layer::Command>
{
  public:
    /**
     * Whether holdTargets() is supported: on every SSV loop, and on
     * the LQG loop of the hardware layer, where the cluster controller
     * pins targets. The others keep no hold state, and their
     * checkpoints carry none.
     */
    static constexpr bool kHolds = std::is_same_v<Runtime, SsvRuntime> ||
                                   std::is_same_v<Layer, HwLayer>;

    /** Takes ownership of the synthesized runtime and optimizer. */
    ModelController(Runtime runtime, ExdOptimizer optimizer)
        : runtime_(std::move(runtime)), optimizer_(std::move(optimizer))
    {
    }

    /** One control period. */
    typename Layer::Command invoke(const typename Layer::Signals& s) override
    {
        const linalg::Vector y = Layer::outputs(s);
        const linalg::Vector& targets =
            hold_ ? held_targets_
                  : optimizer_.update(Layer::metric(s), y);
        std::optional<obs::TraceEvent> ev;
        if (trace_ != nullptr) {
            ev = trace_->makeEvent(Layer::kTraceLayer, traceKind(runtime_));
            ev->vec("y", y.raw()).vec("targets", targets.raw());
        }
        const linalg::Vector u = runtimeStep<Layer>(
            runtime_, targets - y, s, ev ? &*ev : nullptr);
        if (ev) {
            trace_->record(std::move(*ev));
        }
        return Layer::command(u, s);
    }

    /** Resets the runtime and the optimizer; a hold persists. */
    void reset() override
    {
        runtime_.reset();
        optimizer_.reset();
    }

    /** Traces this loop and its optimizer to @p sink (nullptr off). */
    void attachTrace(obs::TraceSink* sink) override
    {
        trace_ = sink;
        optimizer_.attachTrace(sink, Layer::kOptimizerLayer);
    }

    /** Overrides the optimizer with fixed output targets. */
    bool holdTargets(const linalg::Vector& targets) override
    {
        if constexpr (kHolds) {
            held_targets_ = targets;
            hold_ = true;
        }
        return kHolds;
    }

    /** Read access to the wrapped runtime and optimizer. */
    const Runtime& runtime() const { return runtime_; }
    const ExdOptimizer& optimizer() const { return optimizer_; }

    /**
     * Replaces the wrapped runtime with a freshly synthesized one,
     * arming bumpless transfer against @p u_prev -- the physical
     * command in force at the swap tick. The optimizer and its walked
     * targets persist: the operating point outlives the controller
     * generation.
     */
    void swapRuntime(Runtime runtime, const linalg::Vector& u_prev)
        requires std::is_same_v<Runtime, SsvRuntime>
    {
        runtime.armBumpless(u_prev);
        runtime_ = std::move(runtime);
    }

    /**
     * Raw runtime replacement for checkpoint restore: no bumpless
     * arming (the restored state stream carries the exact post-swap
     * runtime state, including any still-pending arm).
     */
    void installRuntime(Runtime runtime) { runtime_ = std::move(runtime); }

    /** Checkpoint hooks: runtime + optimizer (+ hold state). */
    void state(obs::StateWriter& w) override { fields(w); }
    void state(obs::StateReader& r) override { fields(r); }

  private:
    Runtime runtime_;
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
        if constexpr (kHolds) {
            io.f64vec("ctl.held_targets", held_targets_.raw());
            io.boolean("ctl.hold", hold_);
        }
    }
};

/** SSV hardware controller (Sec. IV-A) + optimizer. */
using SsvHwController = ModelController<SsvRuntime, HwLayer>;

/** SSV software controller (Sec. IV-B) + optimizer. */
using SsvOsController = ModelController<SsvRuntime, OsLayer>;

/** Decoupled-LQG hardware controller (no external signals). */
using LqgHwController = ModelController<LqgRuntime, HwLayer>;

/** Decoupled-LQG software controller; it holds no targets. */
using LqgOsController = ModelController<LqgRuntime, OsLayer>;

/**
 * Monolithic LQG (Sec. VI-B): one LQG loop over all seven outputs
 * {BIPS, P_big, P_little, T, BIPS_big, BIPS_little, dSC} and all
 * seven inputs {cores/freqs, placement knobs}; it holds no targets.
 */
using MonolithicLqgController = ModelController<LqgRuntime, JointLayer>;

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_LAYER_CONTROLLERS_H_
