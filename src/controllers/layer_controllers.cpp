#include "controllers/layer_controllers.h"

#include <algorithm>
#include <cmath>

namespace yukta::controllers {

using linalg::Vector;
using platform::HardwareInputs;
using platform::PlacementPolicy;

double
exdMetric(double total_power, double bips)
{
    double perf = std::max(bips, 0.05);
    return std::max(total_power, 0.0) / (perf * perf);
}

ExdOptimizer
makeHwOptimizer(const platform::BoardConfig& cfg)
{
    OptimizerConfig oc;
    // Targets: [BIPS, P_big, P_little, Temp].
    oc.initial = {3.0, 0.7 * cfg.power_limit_big,
                  0.7 * cfg.power_limit_little, cfg.temp_limit - 9.0};
    oc.min = {0.5, 0.3, 0.05, 40.0};
    oc.max = {12.0, 0.93 * cfg.power_limit_big,
              0.93 * cfg.power_limit_little, cfg.temp_limit - 4.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kBudget,
               TargetRole::kBudget, TargetRole::kCeiling};
    oc.step = {0.6, 0.25, 0.03, 0.0};
    oc.periods_per_move = 6;
    return ExdOptimizer(oc);
}

ExdOptimizer
makeOsOptimizer()
{
    OptimizerConfig oc;
    // Targets: [BIPS_big, BIPS_little, dSC]. The spare-compute
    // difference is informational: its target follows the measurement
    // (a fixed dSC target would fight thread consolidation, since an
    // all-big placement legitimately drives dSC negative).
    oc.initial = {3.0, 1.0, 0.0};
    oc.min = {0.5, 0.1, -10.0};
    oc.max = {10.0, 4.0, 10.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kMaximize,
               TargetRole::kCeiling};
    oc.step = {0.6, 0.3, 0.0};
    // Coordinate mode: the two cluster-BIPS targets trade off through
    // thread placement, so they must be probed one at a time.
    oc.coordinate = true;
    return ExdOptimizer(oc);
}

ExdOptimizer
makeMonolithicOptimizer(const platform::BoardConfig& cfg)
{
    OptimizerConfig oc;
    // Targets: [BIPS, P_big, P_little, Temp, BIPS_big, BIPS_little,
    // dSC].
    oc.initial = {3.0,  0.7 * cfg.power_limit_big,
                  0.7 * cfg.power_limit_little,
                  cfg.temp_limit - 9.0,
                  3.0,  1.0,
                  1.0};
    oc.min = {0.5, 0.3, 0.05, 40.0, 0.5, 0.1, -10.0};
    oc.max = {12.0, 0.93 * cfg.power_limit_big,
              0.93 * cfg.power_limit_little, cfg.temp_limit - 4.0, 10.0,
              4.0, 10.0};
    oc.role = {TargetRole::kMaximize, TargetRole::kBudget,
               TargetRole::kBudget,   TargetRole::kCeiling,
               TargetRole::kMaximize, TargetRole::kMaximize,
               TargetRole::kCeiling};
    oc.step = {0.5, 0.15, 0.015, 0.0, 0.4, 0.15, 0.0};
    return ExdOptimizer(oc);
}

namespace {

/** Maps u[at..at+2] to the placement policy. */
PlacementPolicy
placementFrom(const Vector& u, std::size_t at, std::size_t num_threads)
{
    PlacementPolicy out;
    // Threads assigned to big cannot exceed the runnable threads.
    out.threads_big =
        std::clamp(u[at], 0.0, static_cast<double>(num_threads));
    out.tpc_big = std::max(1.0, u[at + 1]);
    out.tpc_little = std::max(1.0, u[at + 2]);
    return out;
}

}  // namespace

HardwareInputs
HwLayer::command(const Vector& u, const Signals& s)
{
    (void)s;
    HardwareInputs out;
    out.big_cores = static_cast<std::size_t>(std::lround(u[0]));
    out.little_cores = static_cast<std::size_t>(std::lround(u[1]));
    out.freq_big = u[2];
    out.freq_little = u[3];
    return out;
}

PlacementPolicy
OsLayer::command(const Vector& u, const Signals& s)
{
    return placementFrom(u, 0, s.num_threads);
}

JointLayer::Command
JointLayer::command(const Vector& u, const Signals& s)
{
    return {HwLayer::command(u, s.hw), placementFrom(u, 4, s.os.num_threads)};
}

}  // namespace yukta::controllers
