#ifndef YUKTA_LINALG_QR_H_
#define YUKTA_LINALG_QR_H_

/**
 * @file
 * Householder QR factorization and least-squares solves. The
 * least-squares path is the workhorse of system identification (ARX
 * regression) and of the stable-subspace extraction in the Riccati
 * solvers.
 */

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace yukta::linalg {

/** Householder QR factorization A = Q R of an m x n matrix, m >= n. */
class Qr
{
  public:
    /** Factorizes @p a. @throws std::invalid_argument when m < n. */
    explicit Qr(const Matrix& a);

    /** @return the thin Q factor (m x n, orthonormal columns). */
    Matrix q() const;

    /** @return the upper-triangular R factor (n x n). */
    Matrix r() const;

    /**
     * Solves min ||A x - b||_2 for each column of @p b.
     * @throws std::runtime_error when A is numerically rank deficient.
     */
    Matrix solve(const Matrix& b) const;

    /** Vector version of solve(). */
    Vector solve(const Vector& b) const;

    /** @return true when all R diagonal entries are well above zero. */
    bool fullRank() const { return full_rank_; }

  private:
    /// Packed factorization: strict upper triangle holds R, lower
    /// triangle (incl. diagonal) holds the Householder vectors.
    Matrix qr_;
    std::vector<double> rdiag_;  ///< Diagonal of R.
    bool full_rank_ = true;

    /** Applies Q^T to @p x in place (x has qr_.rows() rows). */
    void applyQt(Matrix& x) const;
};

/** Convenience: least-squares solve min ||A x - b||. */
Matrix lstsq(const Matrix& a, const Matrix& b);

/** Convenience: vector least squares. */
Vector lstsq(const Matrix& a, const Vector& b);

}  // namespace yukta::linalg

#endif  // YUKTA_LINALG_QR_H_
