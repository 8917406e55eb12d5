#include "platform/sensors.h"

#include <algorithm>

namespace yukta::platform {

Sensors::Sensors(const SensorConfig& cfg, double ambient,
                 std::uint32_t seed)
    : cfg_(cfg), ambient_(ambient), rng_(seed), temp_(ambient)
{
}

void
Sensors::step(double dt, double true_p_big, double true_p_little,
              double true_temp)
{
    // Power: accumulate the window, publish on completion. Negative
    // raw samples (noise can undershoot near idle) are physically
    // impossible; clamp to zero and count the rejection.
    win_time_ += dt;
    win_big_ += true_p_big * dt;
    win_little_ += true_p_little * dt;
    if (win_time_ >= cfg_.power_period) {
        double avg_big = win_big_ / win_time_;
        double avg_little = win_little_ / win_time_;
        double noise_b = 1.0 + cfg_.power_noise * gauss_(rng_);
        double noise_l = 1.0 + cfg_.power_noise * gauss_(rng_);
        double raw_big = avg_big * noise_b;
        double raw_little = avg_little * noise_l;
        if (raw_big < 0.0 || raw_little < 0.0) {
            ++clamped_power_;
        }
        p_big_ = std::max(0.0, raw_big);
        p_little_ = std::max(0.0, raw_little);
        win_time_ = 0.0;
        win_big_ = 0.0;
        win_little_ = 0.0;
    }

    // Temperature: periodic instantaneous sample with absolute noise,
    // floored at ambient (the die cannot be colder than the air).
    temp_timer_ += dt;
    if (temp_timer_ >= cfg_.temp_period) {
        double raw = true_temp + cfg_.temp_noise * gauss_(rng_);
        if (raw < ambient_) {
            ++clamped_temp_;
        }
        temp_ = std::max(ambient_, raw);
        temp_timer_ = 0.0;
    }
}

template <class Io>
void
Sensors::state(Io& io)
{
    io.engine("sensors.rng", rng_);
    io.distribution("sensors.gauss", gauss_);
    io.f64("sensors.p_big", p_big_);
    io.f64("sensors.p_little", p_little_);
    io.f64("sensors.temp", temp_);
    io.f64("sensors.win_time", win_time_);
    io.f64("sensors.win_big", win_big_);
    io.f64("sensors.win_little", win_little_);
    io.f64("sensors.temp_timer", temp_timer_);
    io.u64("sensors.clamped_power", clamped_power_);
    io.u64("sensors.clamped_temp", clamped_temp_);
}

template void Sensors::state(obs::StateWriter&);
template void Sensors::state(obs::StateReader&);

}  // namespace yukta::platform
