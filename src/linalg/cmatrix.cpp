#include "linalg/cmatrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace yukta::linalg {

CMatrix::CMatrix(std::size_t rows, std::size_t cols, Complex fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

CMatrix::CMatrix(std::initializer_list<std::initializer_list<Complex>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) {
            throw std::invalid_argument("CMatrix: ragged initializer list");
        }
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

CMatrix::CMatrix(const Matrix& real)
    : rows_(real.rows()), cols_(real.cols()), data_(rows_ * cols_)
{
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            data_[r * cols_ + c] = Complex(real(r, c), 0.0);
        }
    }
}

CMatrix
CMatrix::identity(std::size_t n)
{
    CMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = Complex(1.0, 0.0);
    }
    return m;
}

CMatrix
CMatrix::diag(const std::vector<double>& d)
{
    CMatrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        m(i, i) = Complex(d[i], 0.0);
    }
    return m;
}

CMatrix&
CMatrix::operator+=(const CMatrix& rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("CMatrix+=: shape mismatch");
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += rhs.data_[i];
    }
    return *this;
}

CMatrix&
CMatrix::operator-=(const CMatrix& rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("CMatrix-=: shape mismatch");
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] -= rhs.data_[i];
    }
    return *this;
}

CMatrix&
CMatrix::operator*=(Complex s)
{
    for (Complex& v : data_) {
        v *= s;
    }
    return *this;
}

CMatrix
CMatrix::adjoint() const
{
    CMatrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = std::conj((*this)(r, c));
        }
    }
    return t;
}

CMatrix
CMatrix::transpose() const
{
    CMatrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

CMatrix
CMatrix::block(std::size_t r, std::size_t c,
               std::size_t h, std::size_t w) const
{
    if (r + h > rows_ || c + w > cols_) {
        throw std::out_of_range("CMatrix::block: out of range");
    }
    CMatrix b(h, w);
    for (std::size_t i = 0; i < h; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
            b(i, j) = (*this)(r + i, c + j);
        }
    }
    return b;
}

void
CMatrix::setBlock(std::size_t r, std::size_t c, const CMatrix& src)
{
    if (r + src.rows() > rows_ || c + src.cols() > cols_) {
        throw std::out_of_range("CMatrix::setBlock: out of range");
    }
    for (std::size_t i = 0; i < src.rows(); ++i) {
        for (std::size_t j = 0; j < src.cols(); ++j) {
            (*this)(r + i, c + j) = src(i, j);
        }
    }
}

Matrix
CMatrix::realPart() const
{
    Matrix m(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            m(r, c) = (*this)(r, c).real();
        }
    }
    return m;
}

Matrix
CMatrix::imagPart() const
{
    Matrix m(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            m(r, c) = (*this)(r, c).imag();
        }
    }
    return m;
}

double
CMatrix::normFro() const
{
    double s = 0.0;
    for (const Complex& v : data_) {
        s += std::norm(v);
    }
    return std::sqrt(s);
}

double
CMatrix::maxAbs() const
{
    double best = 0.0;
    for (const Complex& v : data_) {
        best = std::max(best, std::abs(v));
    }
    return best;
}

bool
CMatrix::isApprox(const CMatrix& rhs, double tol) const
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        return false;
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        // Negated <= so that NaNs compare as "not close".
        if (!(std::abs(data_[i] - rhs.data_[i]) <= tol)) {
            return false;
        }
    }
    return true;
}

bool
CMatrix::allFinite() const
{
    for (const Complex& v : data_) {
        if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
            return false;
        }
    }
    return true;
}

CMatrix
operator+(CMatrix lhs, const CMatrix& rhs)
{
    lhs += rhs;
    return lhs;
}

CMatrix
operator-(CMatrix lhs, const CMatrix& rhs)
{
    lhs -= rhs;
    return lhs;
}

CMatrix
operator*(const CMatrix& lhs, const CMatrix& rhs)
{
    if (lhs.cols() != rhs.rows()) {
        throw std::invalid_argument("CMatrix*: shape mismatch");
    }
    CMatrix out(lhs.rows(), rhs.cols());
    // Skip only when the right operand is verified finite: 0 * NaN
    // and 0 * Inf must propagate as NaN (IEEE semantics).
    const bool rhs_finite = rhs.allFinite();
    for (std::size_t i = 0; i < lhs.rows(); ++i) {
        for (std::size_t k = 0; k < lhs.cols(); ++k) {
            Complex a = lhs(i, k);
            if (a == Complex(0.0, 0.0) && rhs_finite) {
                continue;
            }
            for (std::size_t j = 0; j < rhs.cols(); ++j) {
                out(i, j) += a * rhs(k, j);
            }
        }
    }
    return out;
}

CMatrix
operator*(Complex s, CMatrix m)
{
    m *= s;
    return m;
}

CMatrix
csolve(const CMatrix& a, const CMatrix& b)
{
    if (!a.isSquare() || a.rows() != b.rows()) {
        throw std::invalid_argument("csolve: shape mismatch");
    }
    std::size_t n = a.rows();
    CMatrix lu = a;
    CMatrix x = b;
    std::vector<std::size_t> piv(n);
    for (std::size_t i = 0; i < n; ++i) {
        piv[i] = i;
    }

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting on the largest magnitude below the diagonal.
        std::size_t p = k;
        double best = std::abs(lu(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            double v = std::abs(lu(r, k));
            if (v > best) {
                best = v;
                p = r;
            }
        }
        if (best < 1e-300) {
            throw std::runtime_error("csolve: singular matrix");
        }
        if (p != k) {
            for (std::size_t c = 0; c < n; ++c) {
                std::swap(lu(k, c), lu(p, c));
            }
            for (std::size_t c = 0; c < x.cols(); ++c) {
                std::swap(x(k, c), x(p, c));
            }
        }
        for (std::size_t r = k + 1; r < n; ++r) {
            Complex f = lu(r, k) / lu(k, k);
            lu(r, k) = f;
            for (std::size_t c = k + 1; c < n; ++c) {
                lu(r, c) -= f * lu(k, c);
            }
            for (std::size_t c = 0; c < x.cols(); ++c) {
                x(r, c) -= f * x(k, c);
            }
        }
    }

    // Back substitution.
    for (std::size_t ci = 0; ci < x.cols(); ++ci) {
        for (std::size_t ri = n; ri-- > 0;) {
            Complex s = x(ri, ci);
            for (std::size_t c = ri + 1; c < n; ++c) {
                s -= lu(ri, c) * x(c, ci);
            }
            x(ri, ci) = s / lu(ri, ri);
        }
    }
    return x;
}

}  // namespace yukta::linalg
