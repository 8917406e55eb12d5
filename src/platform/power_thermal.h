#ifndef YUKTA_PLATFORM_POWER_THERMAL_H_
#define YUKTA_PLATFORM_POWER_THERMAL_H_

/**
 * @file
 * Power and thermal models of the simulated board.
 *
 * Power per cluster: for each powered core,
 *   P_dyn  = Ceff * activity * V^2 * f * utilization
 *   P_leak = leak_ref * (V / Vmax) * (1 + tc * (T - Tref))
 * plus a per-cluster uncore term. Temperature follows a two-node RC
 * network (silicon hot spot over heatsink over ambient).
 */

#include <limits>

#include "obs/stateio.h"
#include "platform/config.h"
#include "platform/dvfs.h"

namespace yukta::platform {

/** Instantaneous operating state of one cluster for power purposes. */
struct ClusterActivity
{
    std::size_t cores_on = 0;     ///< Powered cores.
    double freq = 0.2;            ///< GHz (quantized).
    double avg_utilization = 0.0; ///< Mean busy fraction of powered cores.
    double activity = 1.0;        ///< Workload switching factor (~0.7-1.2).
};

/** A DVFS operating point: a grid frequency and its voltage. */
struct OperatingPoint
{
    double freq = 0.2;  ///< GHz, on the DVFS grid.
    double volt = 0.0;  ///< V at @ref freq.
};

/** Computes cluster power (W). */
class PowerModel
{
  public:
    /** Builds the model for one cluster and its DVFS table. */
    PowerModel(const ClusterConfig& cfg, const DvfsTable& dvfs);

    /** @return the operating point @p freq quantizes to. */
    OperatingPoint operatingPoint(double freq) const;

    /**
     * @param act current activity; its freq is ignored in favour of
     *   @p op.
     * @param op operating point, operatingPoint(act.freq). The board
     *   computes it once per applied frequency, not per step.
     * @param temp current silicon temperature (C).
     * @return total cluster power in watts.
     */
    double clusterPower(const ClusterActivity& act, const OperatingPoint& op,
                        double temp) const;

    /** @return clusterPower at operatingPoint(act.freq). */
    double clusterPower(const ClusterActivity& act, double temp) const
    {
        return clusterPower(act, operatingPoint(act.freq), temp);
    }

    /** Dynamic-only component at @p op (for diagnostics). */
    double dynamicPower(const ClusterActivity& act,
                        const OperatingPoint& op) const;

    /** Leakage component at @p op and temperature @p temp. */
    double leakagePower(const ClusterActivity& act, const OperatingPoint& op,
                        double temp) const;

  private:
    ClusterConfig cfg_;
    DvfsTable dvfs_;  ///< Owned copy: keeps PowerModel freely movable.
    static constexpr double kLeakRefTemp = 45.0;  ///< C.
};

/** Two-node RC thermal model of the hot spot. */
class ThermalModel
{
  public:
    /** Builds the RC model from @p cfg, starting at ambient. */
    explicit ThermalModel(const ThermalConfig& cfg);

    /**
     * Advances the model by @p dt seconds with the given weighted
     * power (sum over clusters of power * thermal_weight).
     */
    void step(double weighted_power, double dt);

    /** @return the hot-spot (silicon) temperature in C. */
    double hotspot() const { return t_silicon_; }

    /** @return the heatsink node temperature in C. */
    double heatsink() const { return t_heatsink_; }

    /** Resets both nodes to ambient. */
    void reset();

    /** @return the steady-state hotspot for constant power (C). */
    double steadyState(double weighted_power) const;

    /** Writes or restores both node temperatures (obs/stateio.h). */
    template <class Io>
    void state(Io& io)
    {
        io.f64("thermal.t_silicon", t_silicon_);
        io.f64("thermal.t_heatsink", t_heatsink_);
    }

  private:
    ThermalConfig cfg_;
    double t_silicon_;
    double t_heatsink_;

    /// 1 - exp(-dt/tau) per node for the last step's dt: the board
    /// steps at a fixed dt, so the exp() calls run once.
    double coef_dt_ = std::numeric_limits<double>::quiet_NaN();
    double a_silicon_ = 0.0;
    double a_heatsink_ = 0.0;
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_POWER_THERMAL_H_
