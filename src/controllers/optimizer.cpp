#include "controllers/optimizer.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/contracts.h"
#include "obs/trace.h"

namespace yukta::controllers {

ExdOptimizer::ExdOptimizer(OptimizerConfig cfg) : cfg_(std::move(cfg))
{
    std::size_t n = cfg_.initial.size();
    if (cfg_.min.size() != n || cfg_.max.size() != n ||
        cfg_.role.size() != n || cfg_.step.size() != n || n == 0) {
        throw std::invalid_argument("ExdOptimizer: config size mismatch");
    }
    if (cfg_.periods_per_move < 1) {
        throw std::invalid_argument("ExdOptimizer: bad periods_per_move");
    }
    targets_ = linalg::Vector(cfg_.initial);
    channel_dir_.assign(cfg_.initial.size(), +1);
}

void
ExdOptimizer::applyMove(const linalg::Vector& measured)
{
    if (cfg_.coordinate) {
        // Re-anchor every target, then displace a single channel.
        for (std::size_t i = 0; i < targets_.size(); ++i) {
            double base = i < measured.size() ? measured[i] : targets_[i];
            switch (cfg_.role[i]) {
              case TargetRole::kFixed:
                targets_[i] = cfg_.initial[i];
                break;
              case TargetRole::kCeiling:
                targets_[i] = std::clamp(base, cfg_.min[i], cfg_.max[i]);
                break;
              default:
                targets_[i] = std::clamp(base, cfg_.min[i], cfg_.max[i]);
                break;
            }
        }
        // Pick the next walkable channel.
        std::size_t n = targets_.size();
        for (std::size_t tries = 0; tries < n; ++tries) {
            std::size_t i = next_channel_;
            next_channel_ = (next_channel_ + 1) % n;
            if (cfg_.role[i] != TargetRole::kMaximize &&
                cfg_.role[i] != TargetRole::kBudget) {
                continue;
            }
            double base = i < measured.size() ? measured[i] : targets_[i];
            double delta = channel_dir_[i] * cfg_.step[i];
            targets_[i] =
                std::clamp(base + delta, cfg_.min[i], cfg_.max[i]);
            last_channel_ = static_cast<int>(i);
            break;
        }
        ++moves_;
        return;
    }
    // Targets are re-anchored at the measured operating point and
    // displaced in the current direction. Asymmetric steps per
    // Sec. IV-D: advancing raises perf a lot / budgets a little;
    // retreating lowers perf a little / budgets a lot.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
        double base =
            i < measured.size() ? measured[i] : targets_[i];
        double delta = 0.0;
        switch (cfg_.role[i]) {
          case TargetRole::kMaximize:
            delta = direction_ > 0 ? cfg_.step[i] : -0.4 * cfg_.step[i];
            break;
          case TargetRole::kBudget:
            delta = direction_ > 0 ? 0.4 * cfg_.step[i] : -cfg_.step[i];
            break;
          case TargetRole::kFixed:
            targets_[i] = cfg_.initial[i];
            continue;
          case TargetRole::kCeiling:
            targets_[i] = std::clamp(base, cfg_.min[i], cfg_.max[i]);
            continue;
        }
        targets_[i] = std::clamp(base + delta, cfg_.min[i], cfg_.max[i]);
    }
    ++moves_;
}

const linalg::Vector&
ExdOptimizer::update(double exd_metric, const linalg::Vector& measured)
{
    YUKTA_CHECK_FINITE(exd_metric, "ExdOptimizer: non-finite E*D metric");
    YUKTA_CHECK_FINITE(measured, "ExdOptimizer: non-finite measurement");
    // Smooth the metric and the operating-point anchor: workload
    // phases make the instantaneous Power/Perf^2 noisy, and anchoring
    // moves on momentary spikes would let the walk chase its own
    // transients.
    ema_metric_ = ema_metric_ < 0.0
                      ? exd_metric
                      : 0.7 * ema_metric_ + 0.3 * exd_metric;
    if (!have_anchor_) {
        ema_measured_ = measured;
        have_anchor_ = true;
    } else {
        for (std::size_t i = 0;
             i < ema_measured_.size() && i < measured.size(); ++i) {
            ema_measured_[i] = (1.0 - cfg_.anchor_alpha) * ema_measured_[i] +
                               cfg_.anchor_alpha * measured[i];
        }
    }

    if (++period_count_ < cfg_.periods_per_move) {
        return targets_;
    }
    period_count_ = 0;

    bool reversed = false;
    if (last_metric_ >= 0.0 && ema_metric_ > 1.02 * last_metric_) {
        // The last move hurt: flip direction (the re-anchoring to the
        // measured outputs discards the move itself).
        direction_ = -direction_;
        if (cfg_.coordinate && last_channel_ >= 0) {
            channel_dir_[last_channel_] = -channel_dir_[last_channel_];
        }
        ++reversals_;
        ++recent_reversals_;
        reversed = true;
        if (recent_reversals_ >= 2 && converged_at_ < 0) {
            converged_at_ = moves_;
        }
    } else if (last_metric_ >= 0.0) {
        recent_reversals_ = std::max(0, recent_reversals_ - 1);
    }
    last_metric_ = ema_metric_;
    applyMove(ema_measured_);
    if (trace_ != nullptr) {
        obs::TraceEvent ev = trace_->makeEvent(trace_layer_, "opt_move");
        ev.num("metric", ema_metric_)
            .integer("direction", direction_)
            .integer("channel", last_channel_)
            .integer("reversed", reversed ? 1 : 0)
            .integer("move", moves_)
            .vec("targets", targets_.raw());
        trace_->record(std::move(ev));
    }
    return targets_;
}

void
ExdOptimizer::attachTrace(obs::TraceSink* sink, std::string layer)
{
    trace_ = sink;
    trace_layer_ = std::move(layer);
}

void
ExdOptimizer::reset()
{
    targets_ = linalg::Vector(cfg_.initial);
    ema_measured_ = linalg::Vector();
    have_anchor_ = false;
    direction_ = +1;
    last_metric_ = -1.0;
    ema_metric_ = -1.0;
    period_count_ = 0;
    moves_ = 0;
    reversals_ = 0;
    recent_reversals_ = 0;
    converged_at_ = -1;
    channel_dir_.assign(cfg_.initial.size(), +1);
    next_channel_ = 0;
    last_channel_ = -1;
}

template <class Io>
void
ExdOptimizer::state(Io& io)
{
    io.f64vec("opt.targets", targets_.raw());
    io.f64vec("opt.ema_measured", ema_measured_.raw());
    io.boolean("opt.have_anchor", have_anchor_);
    io.i64("opt.direction", direction_);
    std::vector<long long> dirs(channel_dir_.begin(), channel_dir_.end());
    io.i64vec("opt.channel_dir", dirs);
    if constexpr (Io::kLoading) {
        channel_dir_.assign(dirs.begin(), dirs.end());
    }
    io.u64("opt.next_channel", next_channel_);
    io.i64("opt.last_channel", last_channel_);
    io.f64("opt.last_metric", last_metric_);
    io.f64("opt.ema_metric", ema_metric_);
    io.i64("opt.period_count", period_count_);
    io.i64("opt.moves", moves_);
    io.i64("opt.reversals", reversals_);
    io.i64("opt.recent_reversals", recent_reversals_);
    io.i64("opt.converged_at", converged_at_);
}

template void ExdOptimizer::state(obs::StateWriter&);
template void ExdOptimizer::state(obs::StateReader&);

}  // namespace yukta::controllers
