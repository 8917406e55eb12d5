#ifndef YUKTA_LINALG_LU_H_
#define YUKTA_LINALG_LU_H_

/**
 * @file
 * LU and Cholesky factorizations of real matrices, plus the solve /
 * inverse / determinant helpers built on them.
 */

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace yukta::linalg {

/**
 * Partial-pivot LU factorization P A = L U of a square matrix.
 *
 * The factorization is computed once in the constructor; solve() and
 * friends then reuse it.
 */
class Lu
{
  public:
    /** Factorizes @p a. @throws std::invalid_argument if not square. */
    explicit Lu(const Matrix& a);

    /** @return true when the matrix is numerically non-singular. */
    bool invertible() const { return invertible_; }

    /**
     * Solves A x = b for a multi-column right-hand side.
     * @throws std::runtime_error when the matrix is singular.
     */
    Matrix solve(const Matrix& b) const;

    /** Solves A x = b for a vector right-hand side. */
    Vector solve(const Vector& b) const;

    /** @return the inverse A^-1. */
    Matrix inverse() const;

    /** @return det(A), including the pivot sign. */
    double determinant() const;

  private:
    Matrix lu_;
    std::vector<std::size_t> piv_;
    int pivSign_ = 1;
    bool invertible_ = true;
};

/** Convenience: solves A x = b in one call. */
Matrix solve(const Matrix& a, const Matrix& b);

/** Convenience: solves A x = b for a vector b. */
Vector solve(const Matrix& a, const Vector& b);

/** Convenience: inverse of a square matrix. */
Matrix inverse(const Matrix& a);

/** Convenience: determinant of a square matrix. */
double determinant(const Matrix& a);

/**
 * Cholesky factorization A = L L^T of a symmetric positive definite
 * matrix, returning lower-triangular L.
 *
 * @param a symmetric matrix (only the lower triangle is read).
 * @param jitter multiple of the diagonal norm added when a pivot is
 *   non-positive; pass 0 to fail instead.
 * @throws std::runtime_error if the matrix is not positive definite
 *   (after at most one jitter attempt).
 */
Matrix cholesky(const Matrix& a, double jitter = 0.0);

}  // namespace yukta::linalg

#endif  // YUKTA_LINALG_LU_H_
