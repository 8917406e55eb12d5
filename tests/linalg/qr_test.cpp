#include "linalg/qr.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::linalg {
namespace {

TEST(Qr, ReconstructsSquare)
{
    Matrix a = test::randomMatrix(5, 5, 10);
    Qr qr(a);
    EXPECT_TRUE((qr.q() * qr.r()).isApprox(a, 1e-10));
}

TEST(Qr, ReconstructsTall)
{
    Matrix a = test::randomMatrix(9, 4, 11);
    Qr qr(a);
    EXPECT_TRUE((qr.q() * qr.r()).isApprox(a, 1e-10));
}

TEST(Qr, QHasOrthonormalColumns)
{
    Matrix a = test::randomMatrix(8, 3, 12);
    Matrix q = Qr(a).q();
    EXPECT_TRUE(
        (q.transpose() * q).isApprox(Matrix::identity(3), 1e-10));
}

TEST(Qr, RIsUpperTriangular)
{
    Matrix r = Qr(test::randomMatrix(6, 4, 13)).r();
    for (std::size_t i = 0; i < r.rows(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            EXPECT_DOUBLE_EQ(r(i, j), 0.0);
        }
    }
}

TEST(Qr, WideMatrixThrows)
{
    EXPECT_THROW(Qr(Matrix(2, 3)), std::invalid_argument);
}

TEST(Qr, ExactSolveOnSquare)
{
    Matrix a = test::randomMatrix(4, 4, 14) + 4.0 * Matrix::identity(4);
    Vector x{1.0, -2.0, 0.5, 3.0};
    Vector b = a * x;
    EXPECT_TRUE(lstsq(a, b).isApprox(x, 1e-9));
}

TEST(Qr, LeastSquaresMatchesNormalEquations)
{
    Matrix a = test::randomMatrix(20, 3, 15);
    Vector b = toVector(test::randomMatrix(20, 1, 16));
    Vector x = lstsq(a, b);
    // Normal equations: A^T A x = A^T b.
    Matrix ata = a.transpose() * a;
    Vector atb = toVector(a.transpose() * b.asColumn());
    EXPECT_TRUE((ata * x).isApprox(atb, 1e-9));
}

TEST(Qr, RankDeficientThrowsOnSolve)
{
    Matrix a(4, 2);
    a(0, 0) = 1.0;
    a(1, 0) = 2.0;  // second column all zeros -> rank 1
    Qr qr(a);
    EXPECT_FALSE(qr.fullRank());
    EXPECT_THROW(qr.solve(Matrix(4, 1)), std::runtime_error);
}

/** Property sweep: residual of LS solution is orthogonal to range(A). */
class QrResidualProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(QrResidualProperty, ResidualOrthogonal)
{
    auto [m, n] = GetParam();
    Matrix a = test::randomMatrix(m, n, 900 + m + n);
    Matrix b = test::randomMatrix(m, 1, 901 + m);
    Matrix x = lstsq(a, b);
    Matrix res = b - a * x;
    EXPECT_LT((a.transpose() * res).maxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrResidualProperty,
    ::testing::Values(std::make_pair(5, 2), std::make_pair(10, 4),
                      std::make_pair(30, 7), std::make_pair(50, 12)));

}  // namespace
}  // namespace yukta::linalg
