#include "linalg/lu.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::linalg {
namespace {

TEST(Lu, SolvesKnownSystem)
{
    Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    Vector b{3.0, 5.0};
    Vector x = solve(a, b);
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, InverseTimesMatrixIsIdentity)
{
    Matrix a = test::randomMatrix(6, 6, 1) + 3.0 * Matrix::identity(6);
    Matrix inv = inverse(a);
    EXPECT_TRUE((a * inv).isApprox(Matrix::identity(6), 1e-9));
    EXPECT_TRUE((inv * a).isApprox(Matrix::identity(6), 1e-9));
}

TEST(Lu, DeterminantOfTriangular)
{
    Matrix a{{2.0, 5.0}, {0.0, 3.0}};
    EXPECT_NEAR(determinant(a), 6.0, 1e-12);
}

TEST(Lu, DeterminantSignUnderRowSwap)
{
    // Permutation matrix has determinant -1.
    Matrix p{{0.0, 1.0}, {1.0, 0.0}};
    EXPECT_NEAR(determinant(p), -1.0, 1e-12);
}

TEST(Lu, SingularDetection)
{
    Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    Lu lu(a);
    EXPECT_FALSE(lu.invertible());
    EXPECT_THROW(lu.solve(Matrix::identity(2)), std::runtime_error);
}

TEST(Lu, NonSquareThrows)
{
    EXPECT_THROW(Lu(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, ReconstructsSpd)
{
    Matrix a = test::randomSpd(5, 2);
    Matrix l = cholesky(a);
    EXPECT_TRUE((l * l.transpose()).isApprox(a, 1e-9));
    // L must be lower triangular.
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = i + 1; j < 5; ++j) {
            EXPECT_DOUBLE_EQ(l(i, j), 0.0);
        }
    }
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix a{{1.0, 0.0}, {0.0, -1.0}};
    EXPECT_THROW(cholesky(a), std::runtime_error);
}

TEST(Cholesky, JitterRecoversSemidefinite)
{
    // Rank-1 PSD matrix: plain Cholesky fails, jitter succeeds.
    Matrix a{{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_THROW(cholesky(a), std::runtime_error);
    Matrix l = cholesky(a, 1e-9);
    EXPECT_TRUE((l * l.transpose()).isApprox(a, 1e-3));
}

/** Property sweep: solve(A, A*x) == x for random well-conditioned A. */
class LuSolveProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LuSolveProperty, RoundTrip)
{
    int n = GetParam();
    Matrix a =
        test::randomMatrix(n, n, 500 + n) + (n + 2.0) * Matrix::identity(n);
    Matrix x = test::randomMatrix(n, 3, 600 + n);
    Matrix b = a * x;
    EXPECT_TRUE(solve(a, b).isApprox(x, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

/** Property sweep: complex solve round-trips too. */
class CsolveProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CsolveProperty, RoundTrip)
{
    int n = GetParam();
    CMatrix a = test::randomCMatrix(n, n, 700 + n);
    for (int i = 0; i < n; ++i) {
        a(i, i) += Complex(n + 2.0, 0.0);
    }
    CMatrix x = test::randomCMatrix(n, 2, 800 + n);
    CMatrix b = a * x;
    EXPECT_TRUE(csolve(a, b).isApprox(x, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CsolveProperty,
                         ::testing::Values(1, 2, 4, 7, 12));

}  // namespace
}  // namespace yukta::linalg
