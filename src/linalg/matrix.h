#ifndef YUKTA_LINALG_MATRIX_H_
#define YUKTA_LINALG_MATRIX_H_

/**
 * @file
 * Dense real matrix type used throughout Yukta.
 *
 * The matrix is stored row-major in a contiguous buffer. The class is
 * deliberately small: decompositions (LU, QR, eigenvalues, SVD) live in
 * their own headers so that users only pay for what they include.
 */

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/contracts.h"

namespace yukta::linalg {

class Vector;

/** Dense, row-major matrix of doubles. */
class Matrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /**
     * Creates a matrix from nested initializer lists, e.g.
     * `Matrix m{{1, 2}, {3, 4}};`. All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** @return the identity matrix of size n. */
    static Matrix identity(std::size_t n);

    /** @return a rows x cols matrix of zeros. */
    static Matrix zeros(std::size_t rows, std::size_t cols);

    /** @return a rows x cols matrix of ones. */
    static Matrix ones(std::size_t rows, std::size_t cols);

    /** @return a square matrix with @p d on the diagonal. */
    static Matrix diag(const std::vector<double>& d);

    /** @return number of rows. */
    std::size_t rows() const { return rows_; }

    /** @return number of columns. */
    std::size_t cols() const { return cols_; }

    /** @return true when the matrix is 0x0. */
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** @return true when rows() == cols(). */
    bool isSquare() const { return rows_ == cols_; }

    /**
     * Element access. Bounds-checked under YUKTA_CHECKS: out-of-range
     * access throws a ContractViolation naming the shape, e.g.
     * `Matrix(4x3) index (5,1)`.
     */
    double& operator()(std::size_t r, std::size_t c)
    {
        YUKTA_REQUIRE(r < rows_ && c < cols_, "Matrix(", rows_, "x", cols_,
                      ") index (", r, ",", c, ")");
        return data_[r * cols_ + c];
    }

    double operator()(std::size_t r, std::size_t c) const
    {
        YUKTA_REQUIRE(r < rows_ && c < cols_, "Matrix(", rows_, "x", cols_,
                      ") index (", r, ",", c, ")");
        return data_[r * cols_ + c];
    }

    /** @return pointer to the contiguous row-major storage. */
    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);
    Matrix& operator/=(double s);

    /** @return the transpose. */
    Matrix transpose() const;

    /** @return the sub-matrix of size h x w with top-left corner (r, c). */
    Matrix block(std::size_t r, std::size_t c,
                 std::size_t h, std::size_t w) const;

    /** Copies @p src into this matrix with top-left corner (r, c). */
    void setBlock(std::size_t r, std::size_t c, const Matrix& src);

    /** @return row @p r as a 1 x cols matrix. */
    Matrix row(std::size_t r) const;

    /** @return column @p c as a rows x 1 matrix. */
    Matrix col(std::size_t c) const;

    /** @return the main diagonal (works for non-square matrices too). */
    std::vector<double> diagonal() const;

    /** @return the sum of diagonal entries (square only). */
    double trace() const;

    /** @return the Frobenius norm. */
    double normFro() const;

    /** @return the infinity norm (max absolute row sum). */
    double normInf() const;

    /** @return the largest absolute entry (0 for empty matrices). */
    double maxAbs() const;

    /**
     * @return true when every entry differs from @p rhs by at most
     * @p tol (matrices of different shapes are never close).
     */
    bool isApprox(const Matrix& rhs, double tol = 1e-9) const;

    /** @return true when no entry is NaN or infinite. */
    bool allFinite() const;

    /** @return a human-readable multi-line rendering. */
    std::string toString(int precision = 4) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator-(const Matrix& m);
Matrix operator*(const Matrix& lhs, const Matrix& rhs);
Matrix operator*(double s, Matrix m);
Matrix operator*(Matrix m, double s);
Matrix operator/(Matrix m, double s);
bool operator==(const Matrix& lhs, const Matrix& rhs);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

/** @return [lhs, rhs] side by side; both must have equal row counts. */
Matrix hstack(const Matrix& lhs, const Matrix& rhs);

/** @return [lhs; rhs] stacked; both must have equal column counts. */
Matrix vstack(const Matrix& lhs, const Matrix& rhs);

/** @return block-diagonal matrix diag(lhs, rhs). */
Matrix blkdiag(const Matrix& lhs, const Matrix& rhs);

/** @return the Kronecker product lhs (x) rhs. */
Matrix kron(const Matrix& lhs, const Matrix& rhs);

/** @return column-wise vectorization of @p m as an (rows*cols) x 1 matrix. */
Matrix vec(const Matrix& m);

/** Inverse of vec: reshapes an (rows*cols) x 1 matrix column-wise. */
Matrix unvec(const Matrix& v, std::size_t rows, std::size_t cols);

/** YUKTA_CHECK_FINITE customization point (see core/contracts.h). */
inline bool yuktaAllFinite(const Matrix& m) { return m.allFinite(); }

}  // namespace yukta::linalg

#endif  // YUKTA_LINALG_MATRIX_H_
