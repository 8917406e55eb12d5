#ifndef YUKTA_PLATFORM_TMU_H_
#define YUKTA_PLATFORM_TMU_H_

/**
 * @file
 * Emergency thermal/power management heuristics, modeled after the
 * Exynos TMU driver (threshold rules with hysteresis). These fire
 * when sustained power or temperature exceeds preset trip points and
 * override whatever the resource controllers requested — exactly the
 * emergency system the paper's evaluation works underneath
 * (Sec. V-A), and the mechanism that produces the Decoupled
 * heuristic's power oscillations (Fig. 10(b)).
 */

#include <cstddef>

#include "obs/stateio.h"
#include "platform/config.h"
#include "platform/dvfs.h"

namespace yukta::platform {

/** Emergency caps currently in force (applied on top of requests). */
struct EmergencyCaps
{
    double freq_cap_big = 1e9;      ///< GHz; huge when inactive.
    double freq_cap_little = 1e9;   ///< GHz.
    std::size_t max_big_cores = 4;  ///< Forced hotplug limit.
    bool active = false;            ///< Any cap in force.
};

/** Threshold-based emergency controller. */
class Tmu
{
  public:
    /** Builds the TMU from its thresholds and the DVFS tables. */
    Tmu(const TmuConfig& cfg, const BoardConfig& board,
        const DvfsTable& big, const DvfsTable& little);

    /**
     * Advances the emergency logic by @p dt and returns the caps.
     *
     * @param temp current hot-spot temperature (C, true value: the
     *   TMU has its own fast sensor path).
     * @param p_big, p_little current true cluster powers (W).
     * @param f_big, f_little currently applied frequencies (GHz).
     */
    EmergencyCaps step(double dt, double temp, double p_big, double p_little,
                       double f_big, double f_little);

    /** @return the caps currently in force. */
    const EmergencyCaps& caps() const { return caps_; }

    /** @return total time spent with any emergency active (s). */
    double emergencyTime() const { return emergency_time_; }

    /** @return number of emergency actions taken. */
    std::size_t actionCount() const { return actions_; }

    /** Writes or restores all mutable TMU state (obs/stateio.h). */
    template <class Io>
    void state(Io& io);

  private:
    TmuConfig cfg_;
    BoardConfig board_;   ///< Owned copies keep the Tmu movable.
    DvfsTable big_;
    DvfsTable little_;

    EmergencyCaps caps_;
    double over_big_ = 0.0;     ///< Sustained big-power excess timer.
    double over_little_ = 0.0;  ///< Sustained little-power excess timer.
    double action_timer_ = 0.0;
    double cooldown_left_ = 0.0;   ///< Hold time before releases.
    double release_timer_ = 0.0;
    double emergency_time_ = 0.0;
    std::size_t actions_ = 0;
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_TMU_H_
