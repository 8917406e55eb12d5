#include "sysid/drift.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace yukta::sysid {

using linalg::Vector;

CusumDriftDetector::CusumDriftDetector(std::vector<double> sigma,
                                       const CusumOptions& options)
    : sigma_(std::move(sigma)), opt_(options), g_(sigma_.size(), 0.0)
{
    if (sigma_.empty()) {
        throw std::invalid_argument("CusumDriftDetector: empty sigma");
    }
    for (double& s : sigma_) {
        s = std::max(s, 1e-12);
    }
}

bool
CusumDriftDetector::update(const Vector& error)
{
    if (error.size() != sigma_.size()) {
        throw std::invalid_argument("CusumDriftDetector: size mismatch");
    }
    ++samples_;
    bool crossed = false;
    for (std::size_t i = 0; i < g_.size(); ++i) {
        double z = std::abs(error[i]) / sigma_[i] - opt_.slack_sigma;
        g_[i] = std::max(0.0, g_[i] + z);
        if (!fired_ && g_[i] > opt_.threshold) {
            crossed = true;
        }
    }
    if (crossed) {
        fired_ = true;
    }
    return crossed;
}

double
CusumDriftDetector::maxStat() const
{
    double m = 0.0;
    for (double g : g_) {
        m = std::max(m, g);
    }
    return m;
}

void
CusumDriftDetector::rearm()
{
    std::fill(g_.begin(), g_.end(), 0.0);
    fired_ = false;
}

template <class Io>
void
CusumDriftDetector::state(Io& io)
{
    io.u64("cusum.samples", samples_);
    io.boolean("cusum.fired", fired_);
    io.f64vec("cusum.g", g_);
    if constexpr (Io::kLoading) {
        if (g_.size() != sigma_.size()) {
            throw std::runtime_error(
                "CusumDriftDetector: state size mismatch");
        }
    }
}

template void CusumDriftDetector::state(obs::StateWriter&);
template void CusumDriftDetector::state(obs::StateReader&);

std::vector<double>
residualSigma(const ArxModel& model, const IoData& data)
{
    std::size_t ny = model.numOutputs();
    std::size_t lag0 = model.bLag0();
    std::size_t p = std::max(model.orderA(), model.orderB() + lag0 - 1);
    std::vector<double> acc(ny, 0.0);
    std::size_t count = 0;
    std::vector<Vector> yh(model.orderA());
    std::vector<Vector> uh(model.orderB());
    for (std::size_t t = p; t < data.y.size(); ++t, ++count) {
        for (std::size_t k = 0; k < model.orderA(); ++k) {
            yh[k] = data.y[t - 1 - k];
        }
        for (std::size_t k = 0; k < model.orderB(); ++k) {
            uh[k] = data.u[t - lag0 - k];
        }
        Vector e = model.predict(yh, uh) - data.y[t];
        for (std::size_t j = 0; j < ny; ++j) {
            acc[j] += e[j] * e[j];
        }
    }
    std::vector<double> sigma(ny, 1e-12);
    if (count > 0) {
        for (std::size_t j = 0; j < ny; ++j) {
            sigma[j] = std::max(
                std::sqrt(acc[j] / static_cast<double>(count)), 1e-12);
        }
    }
    return sigma;
}

}  // namespace yukta::sysid
