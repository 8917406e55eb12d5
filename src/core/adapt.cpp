#include "core/adapt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/cache.h"

namespace yukta::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

/** Per-channel standard deviation over @p samples (identifyArx's
    normalization rule: dead channels keep unit scale). */
Vector
channelScales(const std::vector<Vector>& samples, std::size_t width)
{
    Vector mean = Vector::zeros(width);
    for (const Vector& s : samples) {
        for (std::size_t j = 0; j < width; ++j) {
            mean[j] += s[j];
        }
    }
    double n = static_cast<double>(samples.size());
    for (std::size_t j = 0; j < width; ++j) {
        mean[j] /= n;
    }
    Vector var = Vector::zeros(width);
    for (const Vector& s : samples) {
        for (std::size_t j = 0; j < width; ++j) {
            double d = s[j] - mean[j];
            var[j] += d * d;
        }
    }
    Vector scale(width);
    constexpr double kDeadChannel = 1e-9;
    for (std::size_t j = 0; j < width; ++j) {
        double sd = std::sqrt(var[j] / n);
        scale[j] = sd <= kDeadChannel ? 1.0 : sd;
    }
    return scale;
}

void
saveArx(obs::StateWriter& w, const std::string& prefix,
        const sysid::ArxModel& m)
{
    w.u64(prefix + ".na", m.orderA());
    w.u64(prefix + ".nb", m.orderB());
    w.u64(prefix + ".lag0", m.bLag0());
    w.u64(prefix + ".ny", m.numOutputs());
    w.u64(prefix + ".nu", m.numInputs());
    w.f64(prefix + ".ts", m.sampleTime());
    for (std::size_t k = 0; k < m.orderA(); ++k) {
        const Matrix& a = m.aCoeff(k);
        std::vector<double> flat(a.data(), a.data() + a.rows() * a.cols());
        w.f64vec(prefix + ".a", flat);
    }
    for (std::size_t k = 0; k < m.orderB(); ++k) {
        const Matrix& b = m.bCoeff(k);
        std::vector<double> flat(b.data(), b.data() + b.rows() * b.cols());
        w.f64vec(prefix + ".b", flat);
    }
    w.f64vec(prefix + ".umean", m.uMean().raw());
    w.f64vec(prefix + ".ymean", m.yMean().raw());
    w.f64vec(prefix + ".icept", m.intercept().raw());
}

sysid::ArxModel
loadArx(obs::StateReader& r, const std::string& prefix)
{
    std::size_t na = r.u64(prefix + ".na");
    std::size_t nb = r.u64(prefix + ".nb");
    std::size_t lag0 = r.u64(prefix + ".lag0");
    std::size_t ny = r.u64(prefix + ".ny");
    std::size_t nu = r.u64(prefix + ".nu");
    double ts = r.f64(prefix + ".ts");
    auto unflatten = [](const std::vector<double>& v, std::size_t rows,
                        std::size_t cols) {
        if (v.size() != rows * cols) {
            throw std::runtime_error("OnlineAdapter: ARX block mismatch");
        }
        Matrix m(rows, cols);
        for (std::size_t i = 0; i < v.size(); ++i) {
            m.data()[i] = v[i];
        }
        return m;
    };
    std::vector<Matrix> a_coeffs;
    for (std::size_t k = 0; k < na; ++k) {
        a_coeffs.push_back(unflatten(r.f64vec(prefix + ".a"), ny, ny));
    }
    std::vector<Matrix> b_coeffs;
    for (std::size_t k = 0; k < nb; ++k) {
        b_coeffs.push_back(unflatten(r.f64vec(prefix + ".b"), ny, nu));
    }
    Vector u_mean(r.f64vec(prefix + ".umean"));
    Vector y_mean(r.f64vec(prefix + ".ymean"));
    Vector icept(r.f64vec(prefix + ".icept"));
    sysid::ArxModel m(std::move(a_coeffs), std::move(b_coeffs),
                      std::move(u_mean), std::move(y_mean), ts, lag0);
    m.setIntercept(std::move(icept));
    return m;
}

}  // namespace

OnlineAdapter::OnlineAdapter(const LayerSpec& spec,
                             std::size_t num_external,
                             const sysid::ArxModel& shipped,
                             const sysid::IoData& training,
                             const AdaptOptions& options)
    : spec_(spec), num_external_(num_external), opt_(options),
      reference_(shipped),
      rls_(shipped, channelScales(training.u, shipped.numInputs()),
           channelScales(training.y, shipped.numOutputs()), options.rls),
      cusum_(sysid::residualSigma(shipped, training), options.cusum),
      sigma_(sysid::residualSigma(shipped, training)),
      arm_tick_(static_cast<std::size_t>(
          options.warmup_ticks > 0 ? options.warmup_ticks : 0)),
      cal_sum_sq_(shipped.numOutputs(), 0.0),
      cal_scale_(shipped.numOutputs(), 1.0)
{
    if (spec_.inputs.size() + num_external_ != shipped.numInputs()) {
        throw std::invalid_argument(
            "OnlineAdapter: spec inputs + external != model inputs");
    }
    if (spec_.outputs.size() != shipped.numOutputs()) {
        throw std::invalid_argument(
            "OnlineAdapter: spec outputs != model outputs");
    }
}

void
OnlineAdapter::observe(const Vector& u, const Vector& y)
{
    ++tick_;
    // Predict with the lag history *before* this sample enters it:
    // the CUSUM watches the reference model's one-step error.
    if (phase_ == Phase::kMonitor && rls_.primed() && tick_ > arm_tick_) {
        Vector e = y - rls_.predictWith(reference_, u);
        const std::size_t cal = static_cast<std::size_t>(
            opt_.calibration_ticks > 0 ? opt_.calibration_ticks : 0);
        if (cal_count_ < cal) {
            // Calibration window: measure the closed-loop nominal
            // error level so slack/threshold apply in honest units.
            for (std::size_t i = 0; i < e.size(); ++i) {
                double n = e[i] / sigma_[i];
                cal_sum_sq_[i] += n * n;
            }
            if (++cal_count_ == cal) {
                for (std::size_t i = 0; i < cal_scale_.size(); ++i) {
                    cal_scale_[i] = std::max(
                        1.0, std::sqrt(cal_sum_sq_[i] /
                                       static_cast<double>(cal_count_)));
                }
            }
        } else {
            Vector scaled(e.size());
            for (std::size_t i = 0; i < e.size(); ++i) {
                scaled[i] = e[i] / cal_scale_[i];
            }
            if (cusum_.update(scaled)) {
                ++drift_events_;
                drift_tick_ = tick_;
                phase_ = Phase::kSettle;
                if (sink_ != nullptr) {
                    obs::TraceEvent ev = sink_->makeEvent("adapt", "drift");
                    ev.integer("adapt_tick",
                               static_cast<long long>(tick_))
                        .num("cusum_stat", cusum_.maxStat());
                    sink_->record(std::move(ev));
                }
            }
        }
    }
    rls_.update(u, y);
    if (phase_ == Phase::kSettle &&
        tick_ >= drift_tick_ + static_cast<std::size_t>(
                                   opt_.settle_ticks > 0 ? opt_.settle_ticks
                                                         : 0)) {
        snapshot_ = rls_.model();
        phase_ = Phase::kSynthReady;
    }
}

bool
OnlineAdapter::synthesize(std::size_t workers)
{
    if (phase_ != Phase::kSynthReady || !snapshot_) {
        return false;
    }
    ++syntheses_;
    // Any non-empty cache_key switches the design cache on. A spec the
    // synthesizer rejects fails like an infeasible one: the adapter
    // stands down instead of staying due for the next dispatch.
    std::optional<Resynthesis> res;
    std::string error;
    try {
        res = resynthesizeSsvLayer(spec_, *snapshot_, num_external_,
                                   opt_.dk, "on", workers);
    } catch (const std::exception& e) {
        error = e.what();
    }
    if (sink_ != nullptr) {
        obs::TraceEvent ev = sink_->makeEvent("adapt", "synthesis");
        ev.integer("adapt_tick", static_cast<long long>(tick_))
            .integer("ok", res.has_value() ? 1 : 0)
            .integer("cache_hit", res && res->cache_hit ? 1 : 0);
        if (!error.empty()) {
            ev.str("error", error);
        }
        sink_->record(std::move(ev));
    }
    if (!res) {
        phase_ = Phase::kDisabled;
        return false;
    }
    if (res->cache_hit) {
        ++cache_hits_;
    }
    pending_text_ = std::move(res->controller_text);
    swap_due_ = tick_ + static_cast<std::size_t>(
                            opt_.swap_delay_ticks > 0 ? opt_.swap_delay_ticks
                                                      : 0);
    phase_ = Phase::kSwapScheduled;
    return true;
}

controllers::SsvRuntime
OnlineAdapter::runtimeFromText(const std::string& text,
                               const sysid::ArxModel& model) const
{
    auto ctrl = ssvControllerFromText(text);
    if (!ctrl) {
        throw std::runtime_error(
            "OnlineAdapter: unparsable controller text");
    }
    return makeSsvRuntime(*ctrl, spec_.inputs, model);
}

controllers::SsvRuntime
OnlineAdapter::makePendingRuntime() const
{
    if (phase_ != Phase::kSwapScheduled || !snapshot_) {
        throw std::logic_error(
            "OnlineAdapter::makePendingRuntime: no pending swap");
    }
    return runtimeFromText(pending_text_, *snapshot_);
}

controllers::SsvRuntime
OnlineAdapter::makeInstalledRuntime() const
{
    if (installed_text_.empty()) {
        throw std::logic_error(
            "OnlineAdapter::makeInstalledRuntime: nothing installed");
    }
    // reference_ became the synthesis snapshot at install time, so its
    // means are exactly the installed runtime's means.
    return runtimeFromText(installed_text_, reference_);
}

void
OnlineAdapter::noteSwapped()
{
    if (phase_ != Phase::kSwapScheduled || !snapshot_) {
        throw std::logic_error("OnlineAdapter::noteSwapped: no swap due");
    }
    installed_text_ = std::move(pending_text_);
    pending_text_.clear();
    reference_ = *snapshot_;
    snapshot_.reset();
    cusum_.rearm();
    // The reference changed, so the closed-loop error level must be
    // re-measured before the detector re-arms.
    std::fill(cal_sum_sq_.begin(), cal_sum_sq_.end(), 0.0);
    std::fill(cal_scale_.begin(), cal_scale_.end(), 1.0);
    cal_count_ = 0;
    arm_tick_ = tick_ + static_cast<std::size_t>(
                            opt_.cooldown_ticks > 0 ? opt_.cooldown_ticks
                                                    : 0);
    ++swaps_;
    phase_ = Phase::kMonitor;
}

template <class Io>
void
OnlineAdapter::state(Io& io)
{
    io.u64("adapt.phase", phase_);
    io.u64("adapt.tick", tick_);
    io.u64("adapt.drift_tick", drift_tick_);
    io.u64("adapt.swap_due", swap_due_);
    io.u64("adapt.arm_tick", arm_tick_);
    io.f64vec("adapt.cal_sum", cal_sum_sq_);
    io.u64("adapt.cal_n", cal_count_);
    io.f64vec("adapt.cal_scale", cal_scale_);
    if constexpr (Io::kLoading) {
        if (cal_sum_sq_.size() != reference_.numOutputs() ||
            cal_scale_.size() != reference_.numOutputs()) {
            throw std::runtime_error(
                "OnlineAdapter: calibration size mismatch");
        }
    }
    io.i64("adapt.drift_events", drift_events_);
    io.i64("adapt.syntheses", syntheses_);
    io.i64("adapt.cache_hits", cache_hits_);
    io.i64("adapt.swaps", swaps_);
    io.str("adapt.pending", pending_text_);
    io.str("adapt.installed", installed_text_);
    bool has_snapshot = snapshot_.has_value();
    io.boolean("adapt.has_snapshot", has_snapshot);
    if constexpr (Io::kLoading) {
        snapshot_.reset();
        if (has_snapshot) {
            snapshot_ = loadArx(io, "adapt.snap");
        }
        reference_ = loadArx(io, "adapt.ref");
    } else {
        if (has_snapshot) {
            saveArx(io, "adapt.snap", *snapshot_);
        }
        saveArx(io, "adapt.ref", reference_);
    }
    rls_.state(io);
    cusum_.state(io);
}

template void OnlineAdapter::state(obs::StateWriter&);
template void OnlineAdapter::state(obs::StateReader&);

std::unique_ptr<OnlineAdapter>
makeHwAdapter(const Artifacts& artifacts, const AdaptOptions& options)
{
    const LayerSpec& spec = artifacts.hw_ssv.spec;
    return std::make_unique<OnlineAdapter>(
        spec, spec.external_names.size(), artifacts.hw_ssv.model,
        artifacts.training.hw, options);
}

}  // namespace yukta::core
