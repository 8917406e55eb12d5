#include "platform/tmu.h"

#include <algorithm>

namespace yukta::platform {

Tmu::Tmu(const TmuConfig& cfg, const BoardConfig& board, const DvfsTable& big,
         const DvfsTable& little)
    : cfg_(cfg), board_(board), big_(big), little_(little)
{
    caps_.freq_cap_big = big_.maxFreq();
    caps_.freq_cap_little = little_.maxFreq();
    caps_.max_big_cores = board_.big.num_cores;
}

EmergencyCaps
Tmu::step(double dt, double temp, double p_big, double p_little, double f_big,
          double f_little)
{
    (void)f_big;
    (void)f_little;

    // Track sustained power excess.
    if (p_big > cfg_.power_margin * board_.power_limit_big) {
        over_big_ += dt;
    } else {
        over_big_ = std::max(0.0, over_big_ - dt);
    }
    if (p_little > cfg_.power_margin * board_.power_limit_little) {
        over_little_ += dt;
    } else {
        over_little_ = std::max(0.0, over_little_ - dt);
    }
    cooldown_left_ = std::max(0.0, cooldown_left_ - dt);

    action_timer_ += dt;
    if (action_timer_ >= cfg_.action_period) {
        action_timer_ = 0.0;

        // --- Thermal emergencies (highest priority): deep cut and
        // forced hotplug, held through a long cooldown. The real
        // Exynos TMU clamps hard and recovers reluctantly.
        if (temp > cfg_.temp_hotplug) {
            if (caps_.max_big_cores > 1) {
                --caps_.max_big_cores;
            }
            caps_.freq_cap_big =
                std::min(caps_.freq_cap_big,
                         big_.quantize(cfg_.thermal_cap_big));
            cooldown_left_ = 2.0 * cfg_.cooldown;
            ++actions_;
        } else if (temp > cfg_.temp_throttle) {
            caps_.freq_cap_big =
                std::min(caps_.freq_cap_big,
                         big_.quantize(cfg_.thermal_cap_big));
            cooldown_left_ = cfg_.cooldown;
            ++actions_;
        }

        // --- Sustained power emergencies: clamp to the deep cap.
        if (over_big_ >= cfg_.power_window) {
            caps_.freq_cap_big = std::min(
                caps_.freq_cap_big, big_.quantize(cfg_.power_cap_big));
            cooldown_left_ = std::max(cooldown_left_, cfg_.cooldown);
            over_big_ = 0.0;
            ++actions_;
        }
        if (over_little_ >= cfg_.power_window) {
            caps_.freq_cap_little =
                std::min(caps_.freq_cap_little,
                         little_.quantize(cfg_.power_cap_little));
            cooldown_left_ = std::max(cooldown_left_, cfg_.cooldown);
            over_little_ = 0.0;
            ++actions_;
        }
    }

    // --- Release: trip-point semantics, like the Exynos driver --
    // once the cooldown has expired and conditions are calm, the
    // frequency caps are lifted outright (hotplugged cores return one
    // at a time and only when cool).
    release_timer_ += dt;
    bool calm = cooldown_left_ <= 0.0 && temp < cfg_.temp_release &&
                p_big < 0.9 * board_.power_limit_big &&
                p_little < 0.9 * board_.power_limit_little;
    if (calm && release_timer_ >= cfg_.release_period) {
        release_timer_ = 0.0;
        caps_.freq_cap_big = big_.maxFreq();
        caps_.freq_cap_little = little_.maxFreq();
        if (caps_.max_big_cores < board_.big.num_cores &&
            temp < cfg_.temp_release - 5.0) {
            ++caps_.max_big_cores;
        }
    }

    caps_.active = caps_.freq_cap_big < big_.maxFreq() - 1e-9 ||
                   caps_.freq_cap_little < little_.maxFreq() - 1e-9 ||
                   caps_.max_big_cores < board_.big.num_cores;
    if (caps_.active) {
        emergency_time_ += dt;
    }
    return caps_;
}

template <class Io>
void
Tmu::state(Io& io)
{
    io.f64("tmu.freq_cap_big", caps_.freq_cap_big);
    io.f64("tmu.freq_cap_little", caps_.freq_cap_little);
    io.u64("tmu.max_big_cores", caps_.max_big_cores);
    io.boolean("tmu.active", caps_.active);
    io.f64("tmu.over_big", over_big_);
    io.f64("tmu.over_little", over_little_);
    io.f64("tmu.action_timer", action_timer_);
    io.f64("tmu.cooldown_left", cooldown_left_);
    io.f64("tmu.release_timer", release_timer_);
    io.f64("tmu.emergency_time", emergency_time_);
    io.u64("tmu.actions", actions_);
}

template void Tmu::state(obs::StateWriter&);
template void Tmu::state(obs::StateReader&);

}  // namespace yukta::platform
