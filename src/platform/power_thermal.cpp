#include "platform/power_thermal.h"

#include <algorithm>
#include <cmath>

namespace yukta::platform {

PowerModel::PowerModel(const ClusterConfig& cfg, const DvfsTable& dvfs)
    : cfg_(cfg), dvfs_(dvfs)
{
}

OperatingPoint
PowerModel::operatingPoint(double freq) const
{
    double f = dvfs_.quantize(freq);
    return {f, dvfs_.voltage(f)};
}

double
PowerModel::dynamicPower(const ClusterActivity& act,
                         const OperatingPoint& op) const
{
    if (act.cores_on == 0) {
        return 0.0;
    }
    double f = op.freq;
    double v = op.volt;
    double per_core = cfg_.ceff * act.activity * v * v * f *
                      std::clamp(act.avg_utilization, 0.0, 1.0);
    return per_core * static_cast<double>(act.cores_on);
}

double
PowerModel::leakagePower(const ClusterActivity& act, const OperatingPoint& op,
                         double temp) const
{
    if (act.cores_on == 0) {
        return 0.0;
    }
    double scale = op.volt / cfg_.volt_max;
    double thermal = 1.0 + cfg_.leak_tc * (temp - kLeakRefTemp);
    return cfg_.leak_ref * scale * std::max(thermal, 0.2) *
           static_cast<double>(act.cores_on);
}

double
PowerModel::clusterPower(const ClusterActivity& act, const OperatingPoint& op,
                         double temp) const
{
    double uncore = act.cores_on > 0 ? cfg_.uncore : 0.0;
    return dynamicPower(act, op) + leakagePower(act, op, temp) + uncore;
}

ThermalModel::ThermalModel(const ThermalConfig& cfg) : cfg_(cfg)
{
    reset();
}

void
ThermalModel::reset()
{
    t_silicon_ = cfg_.ambient;
    t_heatsink_ = cfg_.ambient;
}

void
ThermalModel::step(double weighted_power, double dt)
{
    // Silicon relaxes toward heatsink + P * R_si; heatsink toward
    // ambient + P * R_hs.
    double target_si = t_heatsink_ + weighted_power * cfg_.r_silicon;
    double target_hs = cfg_.ambient + weighted_power * cfg_.r_heatsink;
    if (dt != coef_dt_) {  // NaN before the first step
        coef_dt_ = dt;
        a_silicon_ = 1.0 - std::exp(-dt / cfg_.tau_silicon);
        a_heatsink_ = 1.0 - std::exp(-dt / cfg_.tau_heatsink);
    }
    t_silicon_ += a_silicon_ * (target_si - t_silicon_);
    t_heatsink_ += a_heatsink_ * (target_hs - t_heatsink_);
}

double
ThermalModel::steadyState(double weighted_power) const
{
    return cfg_.ambient +
           weighted_power * (cfg_.r_silicon + cfg_.r_heatsink);
}

}  // namespace yukta::platform
