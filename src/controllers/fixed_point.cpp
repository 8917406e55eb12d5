#include "controllers/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.h"

namespace yukta::controllers {

namespace {

std::vector<std::int32_t>
quantizeMatrix(const linalg::Matrix& m)
{
    std::vector<std::int32_t> out(m.rows() * m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            out[r * m.cols() + c] = FixedPointSsv::toFixed(m(r, c));
        }
    }
    return out;
}

}  // namespace

FixedPointSsv::FixedPointSsv(const control::StateSpace& k)
    : n_(k.numStates()), m_(k.numInputs()), p_(k.numOutputs()),
      a_(quantizeMatrix(k.a)), b_(quantizeMatrix(k.b)),
      c_(quantizeMatrix(k.c)), d_(quantizeMatrix(k.d)),
      x_(n_, 0)
{
}

std::int32_t
FixedPointSsv::toFixed(double v)
{
    YUKTA_CHECK_FINITE(v, "FixedPointSsv::toFixed: quantizing a "
                       "non-finite value");
    double scaled = v * static_cast<double>(1 << kFracBits);
    scaled = std::clamp(scaled, -2147483648.0, 2147483647.0);
    return static_cast<std::int32_t>(std::llround(scaled));
}

double
FixedPointSsv::fromFixed(std::int32_t v)
{
    return static_cast<double>(v) / static_cast<double>(1 << kFracBits);
}

std::vector<std::int32_t>
FixedPointSsv::step(const std::vector<std::int32_t>& dy)
{
    if (dy.size() != m_) {
        throw std::invalid_argument("FixedPointSsv::step: size mismatch");
    }
    // u = C x + D dy (64-bit accumulators, one shift per output).
    std::vector<std::int32_t> u(p_);
    for (std::size_t i = 0; i < p_; ++i) {
        std::int64_t acc = 0;
        for (std::size_t j = 0; j < n_; ++j) {
            acc += static_cast<std::int64_t>(c_[i * n_ + j]) * x_[j];
        }
        for (std::size_t j = 0; j < m_; ++j) {
            acc += static_cast<std::int64_t>(d_[i * m_ + j]) * dy[j];
        }
        u[i] = static_cast<std::int32_t>(acc >> kFracBits);
    }
    // x = A x + B dy.
    std::vector<std::int32_t> xn(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        std::int64_t acc = 0;
        for (std::size_t j = 0; j < n_; ++j) {
            acc += static_cast<std::int64_t>(a_[i * n_ + j]) * x_[j];
        }
        for (std::size_t j = 0; j < m_; ++j) {
            acc += static_cast<std::int64_t>(b_[i * m_ + j]) * dy[j];
        }
        xn[i] = static_cast<std::int32_t>(acc >> kFracBits);
    }
    x_ = std::move(xn);
    return u;
}

linalg::Vector
FixedPointSsv::stepDouble(const linalg::Vector& dy)
{
    std::vector<std::int32_t> fixed(dy.size());
    for (std::size_t i = 0; i < dy.size(); ++i) {
        fixed[i] = toFixed(dy[i]);
    }
    std::vector<std::int32_t> u = step(fixed);
    linalg::Vector out(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
        out[i] = fromFixed(u[i]);
    }
    return out;
}

void
FixedPointSsv::reset()
{
    std::fill(x_.begin(), x_.end(), 0);
}

std::size_t
FixedPointSsv::macsPerInvocation() const
{
    return (n_ + p_) * (n_ + m_);
}

std::size_t
FixedPointSsv::storageBytes() const
{
    // Matrices + state vector, 4 bytes per 32-bit word.
    std::size_t words =
        a_.size() + b_.size() + c_.size() + d_.size() + x_.size();
    return 4 * words;
}

}  // namespace yukta::controllers
