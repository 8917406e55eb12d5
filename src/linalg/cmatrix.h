#ifndef YUKTA_LINALG_CMATRIX_H_
#define YUKTA_LINALG_CMATRIX_H_

/**
 * @file
 * Dense complex matrix, used for frequency responses, Hermitian
 * eigenproblems, and structured-singular-value computations.
 */

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "core/contracts.h"
#include "linalg/matrix.h"

namespace yukta::linalg {

using Complex = std::complex<double>;

/** Dense, row-major matrix of std::complex<double>. */
class CMatrix
{
  public:
    CMatrix() = default;

    /** Creates a rows x cols matrix filled with @p fill. */
    CMatrix(std::size_t rows, std::size_t cols, Complex fill = {});

    /** Creates a matrix from nested initializer lists (row major). */
    CMatrix(std::initializer_list<std::initializer_list<Complex>> rows);

    /** Promotes a real matrix to a complex one. */
    explicit CMatrix(const Matrix& real);

    /** @return the complex identity of size n. */
    static CMatrix identity(std::size_t n);

    /** @return a square matrix with @p d (real values) on the diagonal. */
    static CMatrix diag(const std::vector<double>& d);

    /** Shape accessors. */
    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }
    bool isSquare() const { return rows_ == cols_; }

    /**
     * Element access. Bounds-checked under YUKTA_CHECKS: out-of-range
     * access throws a ContractViolation naming the shape, e.g.
     * `CMatrix(4x3) index (5,1)`.
     */
    Complex& operator()(std::size_t r, std::size_t c)
    {
        YUKTA_REQUIRE(r < rows_ && c < cols_, "CMatrix(", rows_, "x", cols_,
                      ") index (", r, ",", c, ")");
        return data_[r * cols_ + c];
    }

    Complex operator()(std::size_t r, std::size_t c) const
    {
        YUKTA_REQUIRE(r < rows_ && c < cols_, "CMatrix(", rows_, "x", cols_,
                      ") index (", r, ",", c, ")");
        return data_[r * cols_ + c];
    }

    /** @return pointer to the contiguous row-major storage. */
    Complex* data() { return data_.data(); }
    const Complex* data() const { return data_.data(); }

    CMatrix& operator+=(const CMatrix& rhs);
    CMatrix& operator-=(const CMatrix& rhs);
    CMatrix& operator*=(Complex s);

    /** @return the conjugate transpose. */
    CMatrix adjoint() const;

    /** @return the (non-conjugated) transpose. */
    CMatrix transpose() const;

    /** @return the sub-matrix of size h x w with top-left corner (r, c). */
    CMatrix block(std::size_t r, std::size_t c,
                  std::size_t h, std::size_t w) const;

    /** Copies @p src into this matrix with top-left corner (r, c). */
    void setBlock(std::size_t r, std::size_t c, const CMatrix& src);

    /** @return the real part as a Matrix. */
    Matrix realPart() const;

    /** @return the imaginary part as a Matrix. */
    Matrix imagPart() const;

    /** @return the Frobenius norm. */
    double normFro() const;

    /** @return the largest absolute entry (0 for empty matrices). */
    double maxAbs() const;

    /** @return true when entries differ from @p rhs by at most @p tol. */
    bool isApprox(const CMatrix& rhs, double tol = 1e-9) const;

    /** @return true when no entry has a NaN or infinite component. */
    bool allFinite() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Complex> data_;
};

CMatrix operator+(CMatrix lhs, const CMatrix& rhs);
CMatrix operator-(CMatrix lhs, const CMatrix& rhs);
CMatrix operator*(const CMatrix& lhs, const CMatrix& rhs);
CMatrix operator*(Complex s, CMatrix m);

/**
 * Solves the complex linear system A x = B via partial-pivot LU.
 *
 * @param a square complex matrix.
 * @param b right-hand side (may have several columns).
 * @return the solution matrix x.
 * @throws std::runtime_error when A is numerically singular.
 */
CMatrix csolve(const CMatrix& a, const CMatrix& b);

/** YUKTA_CHECK_FINITE customization point (see core/contracts.h). */
inline bool yuktaAllFinite(const CMatrix& m) { return m.allFinite(); }

}  // namespace yukta::linalg

#endif  // YUKTA_LINALG_CMATRIX_H_
