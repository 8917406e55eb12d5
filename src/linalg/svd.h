#ifndef YUKTA_LINALG_SVD_H_
#define YUKTA_LINALG_SVD_H_

/**
 * @file
 * Singular value decompositions via one-sided Jacobi. The complex SVD
 * drives the structured-singular-value (mu) upper bound, where the
 * maximum singular value of a D-scaled frequency response is the
 * quantity being minimized.
 */

#include <vector>

#include "linalg/cmatrix.h"
#include "linalg/matrix.h"

namespace yukta::linalg {

/** Complex SVD result A = U diag(s) V^H. */
struct CSvd
{
    CMatrix u;                    ///< m x r, orthonormal columns.
    std::vector<double> s;        ///< Singular values, descending.
    CMatrix v;                    ///< n x r, orthonormal columns.
};

/** Real SVD result A = U diag(s) V^T. */
struct Svd
{
    Matrix u;                     ///< m x r, orthonormal columns.
    std::vector<double> s;        ///< Singular values, descending.
    Matrix v;                     ///< n x r, orthonormal columns.
};

/**
 * Thin SVD of a complex matrix via one-sided Jacobi
 * (r = min(rows, cols)).
 */
CSvd svd(const CMatrix& a);

/** Thin SVD of a real matrix. */
Svd svd(const Matrix& a);

/** @return the largest singular value of @p a (0 for empty). */
double sigmaMax(const CMatrix& a);

/** @return the largest singular value of @p a (0 for empty). */
double sigmaMax(const Matrix& a);

}  // namespace yukta::linalg

#endif  // YUKTA_LINALG_SVD_H_
