#ifndef YUKTA_CONTROLLERS_CONTROLLER_H_
#define YUKTA_CONTROLLERS_CONTROLLER_H_

/**
 * @file
 * Runtime controller interfaces. Both layer controllers run as
 * privileged processes invoked every 500 ms (the period dictated by
 * the board's 260 ms power sensors, Sec. V-A).
 *
 * The hardware controller observes {BIPS, P_big, P_little, T} and
 * actuates {#big cores, #little cores, f_big, f_little}; its external
 * signals are the OS controller's inputs. The OS controller observes
 * {BIPS_big, BIPS_little, delta SpareCompute} and actuates the three
 * placement-policy knobs; its external signals are the hardware
 * controller's inputs.
 */

#include "linalg/vector.h"
#include "obs/stateio.h"
#include "platform/board.h"
#include "platform/scheduler.h"

namespace yukta::obs {
class TraceSink;
}  // namespace yukta::obs

namespace yukta::controllers {

/** Control period in seconds (Sec. V-A). */
inline constexpr double kControlPeriod = 0.5;

/** Signals visible to the hardware-layer controller each period. */
struct HwSignals
{
    double perf_bips = 0.0;  ///< Total BIPS over the last period.
    double p_big = 0.0;      ///< Sensed big-cluster power (W).
    double p_little = 0.0;   ///< Sensed little-cluster power (W).
    double temp = 25.0;      ///< Sensed hot-spot temperature (C).

    // External signals = the OS controller's inputs (Table II).
    double threads_big = 0.0;
    double tpc_big = 1.0;
    double tpc_little = 1.0;
};

/** Signals visible to the software (OS) controller each period. */
struct OsSignals
{
    double perf_big = 0.0;     ///< Big-cluster BIPS over last period.
    double perf_little = 0.0;  ///< Little-cluster BIPS.
    double d_spare = 0.0;      ///< SC_big - SC_little (Eq. 2).
    std::size_t num_threads = 0;  ///< Runnable threads (OS knows this).

    /**
     * Total board power (W) as read from the power sensors. Not a
     * controlled output of the OS layer -- its E x D optimizer reads
     * it the way any privileged process can.
     */
    double total_power = 0.0;

    // External signals = the HW controller's inputs (Table III).
    double big_cores = 4.0;
    double little_cores = 4.0;
    double freq_big = 2.0;
    double freq_little = 1.4;
};

/** Hardware-layer controller interface. */
class HwController
{
  public:
    virtual ~HwController() = default;

    /** One 500 ms invocation: observe @p s, return actuation. */
    virtual platform::HardwareInputs invoke(const HwSignals& s) = 0;

    /** Resets internal state between runs. */
    virtual void reset() {}

    /**
     * Attaches @p sink for per-tick event tracing (nullptr detaches).
     * The default implementation ignores the sink; controllers with
     * internal state worth tracing override it.
     */
    virtual void attachTrace(obs::TraceSink* sink) { (void)sink; }

    /**
     * Pins the output targets to @p targets, bypassing the local
     * E x D optimizer — the hook a *cluster-level* controller uses to
     * set this board's operating point ([BIPS, P_big, P_little, T]
     * for the hardware layer). @return false when this controller has
     * no target mechanism (heuristics); the caller then leaves the
     * board self-governed.
     */
    virtual bool holdTargets(const linalg::Vector& targets)
    {
        (void)targets;
        return false;
    }

    /**
     * Checkpoint hooks: write, or restore, the controller's mutable
     * state through one field list (obs/stateio.h). Stateless
     * controllers keep the no-op defaults.
     */
    virtual void state(obs::StateWriter& w) { (void)w; }
    virtual void state(obs::StateReader& r) { (void)r; }
};

/** Software-layer controller interface. */
class OsController
{
  public:
    virtual ~OsController() = default;

    /** One 500 ms invocation: observe @p s, return placement policy. */
    virtual platform::PlacementPolicy invoke(const OsSignals& s) = 0;

    /** Resets internal state between runs. */
    virtual void reset() {}

    /** Attaches @p sink for per-tick event tracing (nullptr detaches). */
    virtual void attachTrace(obs::TraceSink* sink) { (void)sink; }

    /**
     * Pins the output targets ([BIPS_big, BIPS_little, dSC]) to
     * @p targets, bypassing the local optimizer. @return false when
     * unsupported.
     */
    virtual bool holdTargets(const linalg::Vector& targets)
    {
        (void)targets;
        return false;
    }

    /** Checkpoint hooks, as HwController's (default: no state). */
    virtual void state(obs::StateWriter& w) { (void)w; }
    virtual void state(obs::StateReader& r) { (void)r; }
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_CONTROLLER_H_
