#include "sysid/rls.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

namespace yukta::sysid {

using linalg::Matrix;
using linalg::Vector;

namespace {

/**
 * Writes or restores @p m, whose shape the estimator's structure
 * fixes, as one f64vec of its elements.
 */
template <class Io>
void
matrixState(Io& io, std::string_view key, Matrix& m)
{
    std::vector<double> flat(m.data(), m.data() + m.rows() * m.cols());
    io.f64vec(key, flat);
    if constexpr (Io::kLoading) {
        if (flat.size() != m.rows() * m.cols()) {
            throw std::runtime_error("RlsEstimator: " + std::string(key) +
                                     " size mismatch");
        }
        std::copy(flat.begin(), flat.end(), m.data());
    }
}

}  // namespace

RlsEstimator::RlsEstimator(const ArxModel& seed, Vector u_scale,
                           Vector y_scale, const RlsOptions& options)
    : na_(seed.orderA()), nb_(seed.orderB()), ny_(seed.numOutputs()),
      nu_(seed.numInputs()), lag0_(seed.bLag0()), ts_(seed.sampleTime()),
      u_mean_(seed.uMean()), y_mean_(seed.yMean()),
      u_scale_(std::move(u_scale)), y_scale_(std::move(y_scale)),
      opt_(options)
{
    if (u_scale_.size() != nu_ || y_scale_.size() != ny_) {
        throw std::invalid_argument("RlsEstimator: scale size mismatch");
    }
    for (std::size_t j = 0; j < nu_; ++j) {
        if (!(u_scale_[j] > 0.0)) {
            throw std::invalid_argument("RlsEstimator: non-positive u scale");
        }
    }
    for (std::size_t j = 0; j < ny_; ++j) {
        if (!(y_scale_[j] > 0.0)) {
            throw std::invalid_argument("RlsEstimator: non-positive y scale");
        }
    }
    // Warm start: the seed's coefficients in normalized coordinates
    // (the exact inverse of identifyArx's de-normalization).
    std::size_t ncols = numCols();
    theta_ = Matrix(ncols, ny_);
    std::size_t row = 0;
    for (std::size_t k = 0; k < na_; ++k) {
        for (std::size_t j = 0; j < ny_; ++j, ++row) {
            for (std::size_t i = 0; i < ny_; ++i) {
                theta_(row, i) =
                    seed.aCoeff(k)(i, j) * y_scale_[j] / y_scale_[i];
            }
        }
    }
    for (std::size_t k = 0; k < nb_; ++k) {
        for (std::size_t j = 0; j < nu_; ++j, ++row) {
            for (std::size_t i = 0; i < ny_; ++i) {
                theta_(row, i) =
                    seed.bCoeff(k)(i, j) * u_scale_[j] / y_scale_[i];
            }
        }
    }
    if (!seed.intercept().empty()) {
        for (std::size_t i = 0; i < ny_; ++i) {
            theta_(row, i) = seed.intercept()[i] / y_scale_[i];
        }
    }
    p_ = Matrix::identity(ncols);
    p_ *= opt_.p0;
}

bool
RlsEstimator::primed() const
{
    std::size_t u_need = lag0_ == 0 ? (nb_ == 0 ? 0 : nb_ - 1) : nb_;
    return y_hist_.size() >= na_ && u_hist_.size() >= u_need;
}

Vector
RlsEstimator::regressor(const Vector& u_now) const
{
    Vector phi = Vector::zeros(numCols());
    std::size_t col = 0;
    for (std::size_t k = 1; k <= na_; ++k) {
        const Vector& yk = y_hist_[k - 1];
        for (std::size_t j = 0; j < ny_; ++j) {
            phi[col++] = (yk[j] - y_mean_[j]) / y_scale_[j];
        }
    }
    for (std::size_t k = lag0_; k < lag0_ + nb_; ++k) {
        const Vector& uk = k == 0 ? u_now : u_hist_[k - 1];
        for (std::size_t j = 0; j < nu_; ++j) {
            phi[col++] = (uk[j] - u_mean_[j]) / u_scale_[j];
        }
    }
    phi[col] = 1.0;
    return phi;
}

void
RlsEstimator::update(const Vector& u, const Vector& y)
{
    if (u.size() != nu_ || y.size() != ny_) {
        throw std::invalid_argument("RlsEstimator::update: size mismatch");
    }
    if (primed()) {
        Vector phi = regressor(u);
        Vector p_phi = p_ * phi;
        double excitation = phi.dot(p_phi);
        // Directional windup guard: only forget along excited
        // directions; a quiescent step leaves P untouched by 1/lambda.
        double lambda = excitation < opt_.min_excitation
                            ? 1.0
                            : opt_.forgetting;
        double denom = lambda + excitation;
        Vector gain = p_phi;
        gain *= 1.0 / denom;
        for (std::size_t i = 0; i < ny_; ++i) {
            double pred = 0.0;
            for (std::size_t c = 0; c < phi.size(); ++c) {
                pred += phi[c] * theta_(c, i);
            }
            double err = (y[i] - y_mean_[i]) / y_scale_[i] - pred;
            for (std::size_t c = 0; c < phi.size(); ++c) {
                theta_(c, i) += gain[c] * err;
            }
        }
        // P <- (P - gain * (P phi)') / lambda, then symmetrize to kill
        // round-off drift and cap the trace (second windup guard).
        for (std::size_t r = 0; r < p_.rows(); ++r) {
            for (std::size_t c = 0; c < p_.cols(); ++c) {
                p_(r, c) = (p_(r, c) - gain[r] * p_phi[c]) / lambda;
            }
        }
        for (std::size_t r = 0; r < p_.rows(); ++r) {
            for (std::size_t c = r + 1; c < p_.cols(); ++c) {
                double s = 0.5 * (p_(r, c) + p_(c, r));
                p_(r, c) = s;
                p_(c, r) = s;
            }
        }
        double tr = p_.trace();
        if (tr > opt_.trace_cap) {
            p_ *= opt_.trace_cap / tr;
        }
        ++updates_;
    }
    y_hist_.push_front(y);
    if (y_hist_.size() > na_) {
        y_hist_.pop_back();
    }
    u_hist_.push_front(u);
    std::size_t u_keep = lag0_ + nb_;  // Covers both lag conventions.
    if (u_hist_.size() > u_keep) {
        u_hist_.pop_back();
    }
}

ArxModel
RlsEstimator::model() const
{
    std::vector<Matrix> a_coeffs(na_, Matrix(ny_, ny_));
    std::vector<Matrix> b_coeffs(nb_, Matrix(ny_, nu_));
    std::size_t row = 0;
    for (std::size_t k = 0; k < na_; ++k) {
        for (std::size_t j = 0; j < ny_; ++j, ++row) {
            for (std::size_t i = 0; i < ny_; ++i) {
                a_coeffs[k](i, j) =
                    theta_(row, i) * y_scale_[i] / y_scale_[j];
            }
        }
    }
    for (std::size_t k = 0; k < nb_; ++k) {
        for (std::size_t j = 0; j < nu_; ++j, ++row) {
            for (std::size_t i = 0; i < ny_; ++i) {
                b_coeffs[k](i, j) =
                    theta_(row, i) * y_scale_[i] / u_scale_[j];
            }
        }
    }
    Vector intercept(ny_);
    for (std::size_t i = 0; i < ny_; ++i) {
        intercept[i] = theta_(row, i) * y_scale_[i];
    }
    ArxModel m(std::move(a_coeffs), std::move(b_coeffs), u_mean_, y_mean_,
               ts_, lag0_);
    m.setIntercept(std::move(intercept));
    return m;
}

Vector
RlsEstimator::predictWith(const ArxModel& m, const Vector& u_now) const
{
    if (!primed()) {
        throw std::logic_error("RlsEstimator::predictWith before primed");
    }
    std::vector<Vector> yh(na_);
    for (std::size_t k = 0; k < na_; ++k) {
        yh[k] = y_hist_[k];
    }
    std::vector<Vector> uh(nb_);
    for (std::size_t k = 0; k < nb_; ++k) {
        std::size_t lag = lag0_ + k;
        uh[k] = lag == 0 ? u_now : u_hist_[lag - 1];
    }
    return m.predict(yh, uh);
}

template <class Io>
void
RlsEstimator::state(Io& io)
{
    io.u64("rls.updates", updates_);
    matrixState(io, "rls.theta", theta_);
    matrixState(io, "rls.p", p_);
    io.count("rls.ny_hist", y_hist_);
    for (Vector& v : y_hist_) {
        io.f64vec("rls.yh", v.raw());
    }
    io.count("rls.nu_hist", u_hist_);
    for (Vector& v : u_hist_) {
        io.f64vec("rls.uh", v.raw());
    }
}

template void RlsEstimator::state(obs::StateWriter&);
template void RlsEstimator::state(obs::StateReader&);

}  // namespace yukta::sysid
