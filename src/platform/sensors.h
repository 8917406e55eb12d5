#ifndef YUKTA_PLATFORM_SENSORS_H_
#define YUKTA_PLATFORM_SENSORS_H_

/**
 * @file
 * On-board sensors. The XU3's power sensors (INA231) update every
 * ~260 ms; controllers therefore see windowed averages, not
 * instantaneous power — the paper picks its 500 ms control period
 * from this. Temperature is sampled faster; performance counters
 * (instructions retired) are continuous counters read by perf.
 *
 * Physically impossible raw readings (negative power, temperature
 * below ambient) are clamped at the source and counted, instead of
 * being passed through silently: real sensor drivers reject such
 * samples, and downstream validators (controllers/supervisor.h) rely
 * on clean telemetry meaning "plausible", so corruption past this
 * point is attributable to fault injection, not the sensor model.
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "obs/mt19937.h"
#include "obs/stateio.h"
#include "platform/config.h"

namespace yukta::platform {

/**
 * One complete sensor snapshot as a privileged process reads it each
 * control period: windowed cluster powers, the latest temperature
 * sample, and the cumulative per-cluster instruction counters.
 *
 * This is the boundary type the fault layer (src/fault/) corrupts and
 * the supervisor validates. Construct it only inside the platform and
 * fault layers (yukta-lint rule sensor-construction); everything else
 * receives instances from Board::readings() or by copy.
 */
struct SensorReadings
{
    double p_big = 0.0;        ///< Windowed big-cluster power (W).
    double p_little = 0.0;     ///< Windowed little-cluster power (W).
    double temp = 25.0;        ///< Latest temperature sample (C).
    double instr_big = 0.0;    ///< Cumulative giga-instr, big.
    double instr_little = 0.0; ///< Cumulative giga-instr, little.
};

/** Finite-check customization point (core/contracts.h, via ADL). */
inline bool yuktaAllFinite(const SensorReadings& r)
{
    return std::isfinite(r.p_big) && std::isfinite(r.p_little) &&
           std::isfinite(r.temp) && std::isfinite(r.instr_big) &&
           std::isfinite(r.instr_little);
}

/** Sampled sensor front-end fed by the board's true signals. */
class Sensors
{
  public:
    /**
     * Builds the front-end; @p ambient floors temperature samples
     * (a heatsink cannot read below the air around it) and @p seed
     * drives the noise generator.
     */
    Sensors(const SensorConfig& cfg, double ambient, std::uint32_t seed);

    /**
     * Advances the sensor state by @p dt with the current true
     * values.
     */
    void step(double dt, double true_p_big, double true_p_little,
              double true_temp);

    /** @return last completed power-window average, big cluster (W). */
    double powerBig() const { return p_big_; }

    /** @return last completed power-window average, little (W). */
    double powerLittle() const { return p_little_; }

    /** @return last temperature sample (C). */
    double temperature() const { return temp_; }

    /** @return samples clamped for physically negative power. */
    std::size_t clampedPowerCount() const { return clamped_power_; }

    /** @return samples clamped for temperature below ambient. */
    std::size_t clampedTempCount() const { return clamped_temp_; }

    /** Appends all mutable sensor state (incl. the RNG) to @p w. */
    void save(obs::StateWriter& w) const;

    /** Restores state written by save. */
    void load(obs::StateReader& r);

  private:
    SensorConfig cfg_;
    double ambient_ = 25.0;
    obs::Mt19937 rng_;
    std::normal_distribution<double> gauss_{0.0, 1.0};

    double p_big_ = 0.0;
    double p_little_ = 0.0;
    double temp_ = 25.0;

    double win_time_ = 0.0;
    double win_big_ = 0.0;
    double win_little_ = 0.0;
    double temp_timer_ = 0.0;

    std::size_t clamped_power_ = 0;
    std::size_t clamped_temp_ = 0;
};

/** Per-cluster instructions-retired counters (perf-style). */
struct PerfCounters
{
    double instr_big = 0.0;     ///< Giga-instructions retired, big.
    double instr_little = 0.0;  ///< Giga-instructions retired, little.

    /** @return total giga-instructions retired across clusters. */
    double total() const { return instr_big + instr_little; }
};

}  // namespace yukta::platform

#endif  // YUKTA_PLATFORM_SENSORS_H_
