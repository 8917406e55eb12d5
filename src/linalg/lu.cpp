#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.h"

namespace yukta::linalg {

Lu::Lu(const Matrix& a) : lu_(a), piv_(a.rows())
{
    if (!a.isSquare()) {
        throw std::invalid_argument("Lu: matrix must be square");
    }
    YUKTA_CHECK_FINITE(a, "Lu: non-finite ", a.rows(), "x", a.cols(),
                       " input");
    std::size_t n = a.rows();
    for (std::size_t i = 0; i < n; ++i) {
        piv_[i] = i;
    }
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            double v = std::abs(lu_(r, k));
            if (v > best) {
                best = v;
                p = r;
            }
        }
        if (best < 1e-300) {
            invertible_ = false;
            continue;
        }
        if (p != k) {
            for (std::size_t c = 0; c < n; ++c) {
                std::swap(lu_(k, c), lu_(p, c));
            }
            std::swap(piv_[k], piv_[p]);
            pivSign_ = -pivSign_;
        }
        for (std::size_t r = k + 1; r < n; ++r) {
            double f = lu_(r, k) / lu_(k, k);
            lu_(r, k) = f;
            for (std::size_t c = k + 1; c < n; ++c) {
                lu_(r, c) -= f * lu_(k, c);
            }
        }
    }
}

Matrix
Lu::solve(const Matrix& b) const
{
    if (!invertible_) {
        throw std::runtime_error("Lu::solve: singular matrix");
    }
    if (b.rows() != lu_.rows()) {
        throw std::invalid_argument(
            "Lu::solve: shape mismatch (A is " + std::to_string(lu_.rows()) +
            "x" + std::to_string(lu_.cols()) + ", b has " +
            std::to_string(b.rows()) + " rows)");
    }
    YUKTA_CHECK_FINITE(b, "Lu::solve: non-finite right-hand side");
    std::size_t n = lu_.rows();
    Matrix x(n, b.cols());
    // Apply the row permutation to b.
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < b.cols(); ++c) {
            x(r, c) = b(piv_[r], c);
        }
    }
    // Forward substitution (L has unit diagonal).
    for (std::size_t r = 1; r < n; ++r) {
        for (std::size_t k = 0; k < r; ++k) {
            double f = lu_(r, k);
            if (f == 0.0) {  // yukta-lint: allow(float-eq) sparsity skip
                continue;
            }
            for (std::size_t c = 0; c < x.cols(); ++c) {
                x(r, c) -= f * x(k, c);
            }
        }
    }
    // Back substitution.
    for (std::size_t r = n; r-- > 0;) {
        for (std::size_t c = 0; c < x.cols(); ++c) {
            x(r, c) /= lu_(r, r);
        }
        for (std::size_t k = 0; k < r; ++k) {
            double f = lu_(k, r);
            if (f == 0.0) {  // yukta-lint: allow(float-eq) sparsity skip
                continue;
            }
            for (std::size_t c = 0; c < x.cols(); ++c) {
                x(k, c) -= f * x(r, c);
            }
        }
    }
    return x;
}

Vector
Lu::solve(const Vector& b) const
{
    return toVector(solve(b.asColumn()));
}

Matrix
Lu::inverse() const
{
    return solve(Matrix::identity(lu_.rows()));
}

double
Lu::determinant() const
{
    double d = pivSign_;
    for (std::size_t i = 0; i < lu_.rows(); ++i) {
        d *= lu_(i, i);
    }
    return d;
}

Matrix
solve(const Matrix& a, const Matrix& b)
{
    return Lu(a).solve(b);
}

Vector
solve(const Matrix& a, const Vector& b)
{
    return Lu(a).solve(b);
}

Matrix
inverse(const Matrix& a)
{
    return Lu(a).inverse();
}

double
determinant(const Matrix& a)
{
    return Lu(a).determinant();
}

Matrix
cholesky(const Matrix& a, double jitter)
{
    if (!a.isSquare()) {
        throw std::invalid_argument("cholesky: matrix must be square");
    }
    std::size_t n = a.rows();
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        scale = std::max(scale, std::abs(a(i, i)));
    }

    auto attempt = [&](double eps) -> Matrix {
        Matrix l(n, n);
        for (std::size_t j = 0; j < n; ++j) {
            double d = a(j, j) + eps;
            for (std::size_t k = 0; k < j; ++k) {
                d -= l(j, k) * l(j, k);
            }
            if (d <= 0.0) {
                throw std::runtime_error(
                    "cholesky: matrix not positive definite");
            }
            l(j, j) = std::sqrt(d);
            for (std::size_t i = j + 1; i < n; ++i) {
                double s = a(i, j);
                for (std::size_t k = 0; k < j; ++k) {
                    s -= l(i, k) * l(j, k);
                }
                l(i, j) = s / l(j, j);
            }
        }
        return l;
    };

    if (jitter <= 0.0) {
        return attempt(0.0);
    }
    try {
        return attempt(0.0);
    } catch (const std::runtime_error&) {
        return attempt(jitter * std::max(scale, 1e-300));
    }
}

}  // namespace yukta::linalg
