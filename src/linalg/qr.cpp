#include "linalg/qr.h"

#include <cmath>
#include <stdexcept>

#include "core/contracts.h"

namespace yukta::linalg {

Qr::Qr(const Matrix& a) : qr_(a), rdiag_(a.cols(), 0.0)
{
    std::size_t m = a.rows();
    std::size_t n = a.cols();
    if (m < n) {
        throw std::invalid_argument("Qr: requires rows >= cols");
    }
    YUKTA_CHECK_FINITE(a, "Qr: non-finite ", m, "x", n, " input");

    for (std::size_t k = 0; k < n; ++k) {
        // Compute the Householder reflector for column k.
        double norm = 0.0;
        for (std::size_t i = k; i < m; ++i) {
            norm = std::hypot(norm, qr_(i, k));
        }
        if (norm < 1e-300) {
            full_rank_ = false;
            rdiag_[k] = 0.0;
            continue;
        }
        // Give norm the sign of the pivot so the reflector never
        // cancels (v_k = 1 + |x_k|/norm >= 1).
        if (qr_(k, k) < 0.0) {
            norm = -norm;
        }
        for (std::size_t i = k; i < m; ++i) {
            qr_(i, k) /= norm;
        }
        qr_(k, k) += 1.0;

        // Apply the reflector to the remaining columns.
        for (std::size_t j = k + 1; j < n; ++j) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) {
                s += qr_(i, k) * qr_(i, j);
            }
            s = -s / qr_(k, k);
            for (std::size_t i = k; i < m; ++i) {
                qr_(i, j) += s * qr_(i, k);
            }
        }
        rdiag_[k] = -norm;
    }
}

void
Qr::applyQt(Matrix& x) const
{
    std::size_t m = qr_.rows();
    std::size_t n = qr_.cols();
    for (std::size_t k = 0; k < n; ++k) {
        if (rdiag_[k] == 0.0) {  // yukta-lint: allow(float-eq)
            continue;
        }
        for (std::size_t c = 0; c < x.cols(); ++c) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) {
                s += qr_(i, k) * x(i, c);
            }
            s = -s / qr_(k, k);
            for (std::size_t i = k; i < m; ++i) {
                x(i, c) += s * qr_(i, k);
            }
        }
    }
}

Matrix
Qr::q() const
{
    std::size_t m = qr_.rows();
    std::size_t n = qr_.cols();
    // Build Q by applying the reflectors to the thin identity,
    // working backwards so each reflector touches a shrinking block.
    Matrix q(m, n);
    for (std::size_t i = 0; i < n; ++i) {
        q(i, i) = 1.0;
    }
    for (std::size_t k = n; k-- > 0;) {
        if (rdiag_[k] == 0.0) {  // yukta-lint: allow(float-eq)
            continue;
        }
        for (std::size_t c = 0; c < n; ++c) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i) {
                s += qr_(i, k) * q(i, c);
            }
            s = -s / qr_(k, k);
            for (std::size_t i = k; i < m; ++i) {
                q(i, c) += s * qr_(i, k);
            }
        }
    }
    return q;
}

Matrix
Qr::r() const
{
    std::size_t n = qr_.cols();
    Matrix r(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        r(i, i) = rdiag_[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            r(i, j) = qr_(i, j);
        }
    }
    return r;
}

Matrix
Qr::solve(const Matrix& b) const
{
    if (!full_rank_) {
        throw std::runtime_error("Qr::solve: rank-deficient matrix");
    }
    if (b.rows() != qr_.rows()) {
        throw std::invalid_argument("Qr::solve: shape mismatch");
    }
    std::size_t n = qr_.cols();
    Matrix y = b;
    applyQt(y);

    // Back substitution with R on the top n rows of Q^T b.
    Matrix x(n, b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c) {
        for (std::size_t r = n; r-- > 0;) {
            double s = y(r, c);
            for (std::size_t k = r + 1; k < n; ++k) {
                s -= qr_(r, k) * x(k, c);
            }
            x(r, c) = s / rdiag_[r];
        }
    }
    return x;
}

Vector
Qr::solve(const Vector& b) const
{
    return toVector(solve(b.asColumn()));
}

Matrix
lstsq(const Matrix& a, const Matrix& b)
{
    return Qr(a).solve(b);
}

Vector
lstsq(const Matrix& a, const Vector& b)
{
    return Qr(a).solve(b);
}

}  // namespace yukta::linalg
