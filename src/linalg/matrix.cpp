#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace yukta::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
        if (r.size() != cols_) {
            throw std::invalid_argument("Matrix: ragged initializer list");
        }
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = 1.0;
    }
    return m;
}

Matrix
Matrix::zeros(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols, 0.0);
}

Matrix
Matrix::ones(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols, 1.0);
}

Matrix
Matrix::diag(const std::vector<double>& d)
{
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        m(i, i) = d[i];
    }
    return m;
}

Matrix&
Matrix::operator+=(const Matrix& rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("Matrix+=: shape mismatch");
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] += rhs.data_[i];
    }
    return *this;
}

Matrix&
Matrix::operator-=(const Matrix& rhs)
{
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
        throw std::invalid_argument("Matrix-=: shape mismatch");
    }
    for (std::size_t i = 0; i < data_.size(); ++i) {
        data_[i] -= rhs.data_[i];
    }
    return *this;
}

Matrix&
Matrix::operator*=(double s)
{
    for (double& v : data_) {
        v *= s;
    }
    return *this;
}

Matrix&
Matrix::operator/=(double s)
{
    for (double& v : data_) {
        v /= s;
    }
    return *this;
}

Matrix
Matrix::transpose() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            t(c, r) = (*this)(r, c);
        }
    }
    return t;
}

Matrix
Matrix::block(std::size_t r, std::size_t c,
              std::size_t h, std::size_t w) const
{
    if (r + h > rows_ || c + w > cols_) {
        throw std::out_of_range("Matrix::block: out of range");
    }
    Matrix b(h, w);
    for (std::size_t i = 0; i < h; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
            b(i, j) = (*this)(r + i, c + j);
        }
    }
    return b;
}

void
Matrix::setBlock(std::size_t r, std::size_t c, const Matrix& src)
{
    if (r + src.rows() > rows_ || c + src.cols() > cols_) {
        throw std::out_of_range("Matrix::setBlock: out of range");
    }
    for (std::size_t i = 0; i < src.rows(); ++i) {
        for (std::size_t j = 0; j < src.cols(); ++j) {
            (*this)(r + i, c + j) = src(i, j);
        }
    }
}

Matrix
Matrix::row(std::size_t r) const
{
    return block(r, 0, 1, cols_);
}

Matrix
Matrix::col(std::size_t c) const
{
    return block(0, c, rows_, 1);
}

std::vector<double>
Matrix::diagonal() const
{
    std::size_t n = std::min(rows_, cols_);
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
        d[i] = (*this)(i, i);
    }
    return d;
}

double
Matrix::trace() const
{
    if (!isSquare()) {
        throw std::invalid_argument("Matrix::trace: non-square matrix");
    }
    double t = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
        t += (*this)(i, i);
    }
    return t;
}

double
Matrix::normFro() const
{
    double s = 0.0;
    for (double v : data_) {
        s += v * v;
    }
    return std::sqrt(s);
}

double
Matrix::normInf() const
{
    double best = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < cols_; ++c) {
            sum += std::abs((*this)(r, c));
        }
        best = std::max(best, sum);
    }
    return best;
}

double
Matrix::maxAbs() const
{
    double best = 0.0;
    for (double v : data_) {
        best = std::max(best, std::abs(v));
    }
    return best;
}

bool
Matrix::isApprox(const Matrix& rhs, double tol) const
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
Matrix::allFinite() const
{
    for (double v : data_) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

std::string
Matrix::toString(int precision) const
{
    std::ostringstream os;
    os << std::setprecision(precision);
    for (std::size_t r = 0; r < rows_; ++r) {
        os << (r == 0 ? "[" : " ");
        for (std::size_t c = 0; c < cols_; ++c) {
            os << std::setw(precision + 7) << (*this)(r, c);
        }
        os << (r + 1 == rows_ ? " ]" : "\n");
    }
    return os.str();
}

Matrix
operator+(Matrix lhs, const Matrix& rhs)
{
    lhs += rhs;
    return lhs;
}

Matrix
operator-(Matrix lhs, const Matrix& rhs)
{
    lhs -= rhs;
    return lhs;
}

Matrix
operator-(const Matrix& m)
{
    Matrix r = m;
    r *= -1.0;
    return r;
}

Matrix
operator*(const Matrix& lhs, const Matrix& rhs)
{
    if (lhs.cols() != rhs.rows()) {
        throw std::invalid_argument(
            "Matrix*: shape mismatch (" + std::to_string(lhs.rows()) + "x" +
            std::to_string(lhs.cols()) + " * " + std::to_string(rhs.rows()) +
            "x" + std::to_string(rhs.cols()) + ")");
    }
    Matrix out(lhs.rows(), rhs.cols());
    // The sparsity skip below would drop IEEE non-finite propagation
    // (0 * NaN must be NaN, 0 * Inf must be NaN), so it only fires
    // when the right operand is verified finite.
    const bool rhs_finite = rhs.allFinite();
    for (std::size_t i = 0; i < lhs.rows(); ++i) {
        for (std::size_t k = 0; k < lhs.cols(); ++k) {
            double a = lhs(i, k);
            // yukta-lint: allow(float-eq) sparsity skip
            if (a == 0.0 && rhs_finite) {
                continue;
            }
            for (std::size_t j = 0; j < rhs.cols(); ++j) {
                out(i, j) += a * rhs(k, j);
            }
        }
    }
    return out;
}

Matrix
operator*(double s, Matrix m)
{
    m *= s;
    return m;
}

Matrix
operator*(Matrix m, double s)
{
    m *= s;
    return m;
}

Matrix
operator/(Matrix m, double s)
{
    m /= s;
    return m;
}

bool
operator==(const Matrix& lhs, const Matrix& rhs)
{
    return lhs.isApprox(rhs, 0.0);
}

std::ostream&
operator<<(std::ostream& os, const Matrix& m)
{
    return os << m.toString();
}

Matrix
hstack(const Matrix& lhs, const Matrix& rhs)
{
    // Only a 0x0 matrix acts as the neutral element; matrices with one
    // zero dimension still participate so port bookkeeping stays exact.
    if (lhs.rows() == 0 && lhs.cols() == 0) {
        return rhs;
    }
    if (rhs.rows() == 0 && rhs.cols() == 0) {
        return lhs;
    }
    if (lhs.rows() != rhs.rows()) {
        throw std::invalid_argument("hstack: row count mismatch");
    }
    Matrix out(lhs.rows(), lhs.cols() + rhs.cols());
    out.setBlock(0, 0, lhs);
    out.setBlock(0, lhs.cols(), rhs);
    return out;
}

Matrix
vstack(const Matrix& lhs, const Matrix& rhs)
{
    if (lhs.rows() == 0 && lhs.cols() == 0) {
        return rhs;
    }
    if (rhs.rows() == 0 && rhs.cols() == 0) {
        return lhs;
    }
    if (lhs.cols() != rhs.cols()) {
        throw std::invalid_argument("vstack: column count mismatch");
    }
    Matrix out(lhs.rows() + rhs.rows(), lhs.cols());
    out.setBlock(0, 0, lhs);
    out.setBlock(lhs.rows(), 0, rhs);
    return out;
}

Matrix
blkdiag(const Matrix& lhs, const Matrix& rhs)
{
    Matrix out(lhs.rows() + rhs.rows(), lhs.cols() + rhs.cols());
    out.setBlock(0, 0, lhs);
    out.setBlock(lhs.rows(), lhs.cols(), rhs);
    return out;
}

}  // namespace yukta::linalg
