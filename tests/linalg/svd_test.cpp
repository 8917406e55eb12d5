#include "linalg/svd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::linalg {
namespace {

TEST(Svd, DiagonalMatrix)
{
    Matrix a = Matrix::diag({3.0, 1.0, 2.0});
    Svd d = svd(a);
    ASSERT_EQ(d.s.size(), 3u);
    EXPECT_NEAR(d.s[0], 3.0, 1e-10);
    EXPECT_NEAR(d.s[1], 2.0, 1e-10);
    EXPECT_NEAR(d.s[2], 1.0, 1e-10);
}

TEST(Svd, ReconstructsTall)
{
    Matrix a = test::randomMatrix(8, 4, 31);
    Svd d = svd(a);
    Matrix recon = d.u * Matrix::diag(d.s) * d.v.transpose();
    EXPECT_TRUE(recon.isApprox(a, 1e-9));
}

TEST(Svd, ReconstructsWide)
{
    Matrix a = test::randomMatrix(3, 7, 32);
    Svd d = svd(a);
    ASSERT_EQ(d.s.size(), 3u);
    Matrix recon = d.u * Matrix::diag(d.s) * d.v.transpose();
    EXPECT_TRUE(recon.isApprox(a, 1e-9));
}

TEST(Svd, OrthonormalFactors)
{
    Matrix a = test::randomMatrix(6, 4, 33);
    Svd d = svd(a);
    EXPECT_TRUE((d.u.transpose() * d.u).isApprox(Matrix::identity(4), 1e-9));
    EXPECT_TRUE((d.v.transpose() * d.v).isApprox(Matrix::identity(4), 1e-9));
}

TEST(Svd, ComplexReconstruction)
{
    CMatrix a = test::randomCMatrix(5, 3, 34);
    CSvd d = svd(a);
    CMatrix s(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        s(i, i) = Complex(d.s[i], 0.0);
    }
    EXPECT_TRUE((d.u * s * d.v.adjoint()).isApprox(a, 1e-9));
    EXPECT_TRUE(
        (d.u.adjoint() * d.u).isApprox(CMatrix::identity(3), 1e-9));
}

TEST(Svd, SingularValuesDescending)
{
    Matrix a = test::randomMatrix(10, 6, 35);
    Svd d = svd(a);
    for (std::size_t i = 0; i + 1 < d.s.size(); ++i) {
        EXPECT_GE(d.s[i], d.s[i + 1]);
    }
}

TEST(Svd, SigmaMaxMatchesFroForRankOne)
{
    Matrix u = test::randomMatrix(5, 1, 36);
    Matrix v = test::randomMatrix(1, 4, 37);
    Matrix a = u * v;  // rank one: sigma_max = ||A||_F
    EXPECT_NEAR(sigmaMax(a), a.normFro(), 1e-9);
}

TEST(Svd, SigmaMinOfIdentity)
{
    EXPECT_NEAR(sigmaMin(Matrix::identity(4)), 1.0, 1e-12);
}

TEST(Svd, EmptyMatrix)
{
    EXPECT_DOUBLE_EQ(sigmaMax(Matrix()), 0.0);
    EXPECT_DOUBLE_EQ(sigmaMax(CMatrix()), 0.0);
}

TEST(Svd, UnitaryInvarianceOfSigmaMax)
{
    CMatrix a = test::randomCMatrix(4, 4, 38);
    // Multiplying by a diagonal unitary phase matrix preserves sigma.
    CMatrix u(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        double th = 0.3 * (i + 1);
        u(i, i) = Complex(std::cos(th), std::sin(th));
    }
    EXPECT_NEAR(sigmaMax(u * a), sigmaMax(a), 1e-9);
}

// sigmaMax runs svd()'s rotation sequence without accumulating V, so
// it must return svd()'s largest singular value bit for bit, not just
// a close one. Wide inputs take the adjoint in both.
TEST(Svd, SigmaMaxIsBitwiseSvdFrontForEveryShape)
{
    const std::size_t shapes[][2] = {{7, 4}, {3, 8}, {5, 5}, {1, 6},
                                     {6, 1}, {1, 1}, {12, 12}};
    unsigned seed = 4100;
    for (const auto& shape : shapes) {
        const std::size_t r = shape[0];
        const std::size_t c = shape[1];
        CMatrix ca = test::randomCMatrix(r, c, ++seed);
        EXPECT_EQ(sigmaMax(ca), svd(ca).s.front())
            << "complex " << r << "x" << c;
        Matrix ra = test::randomMatrix(r, c, ++seed);
        EXPECT_EQ(sigmaMax(ra), svd(ra).s.front())
            << "real " << r << "x" << c;
    }
}

TEST(Svd, SigmaMaxIsBitwiseSvdFrontWhenRankDeficient)
{
    // Column 3 repeats column 1, so one singular value is (near) zero.
    CMatrix ca = test::randomCMatrix(6, 4, 4200);
    Matrix ra = test::randomMatrix(6, 4, 4201);
    for (std::size_t i = 0; i < 6; ++i) {
        ca(i, 3) = ca(i, 1);
        ra(i, 3) = ra(i, 1);
    }
    EXPECT_EQ(sigmaMax(ca), svd(ca).s.front());
    EXPECT_EQ(sigmaMax(ra), svd(ra).s.front());
    EXPECT_EQ(sigmaMax(ca.adjoint()), svd(ca.adjoint()).s.front());
    EXPECT_EQ(sigmaMax(ra.transpose()), svd(ra.transpose()).s.front());
}

TEST(Svd, SigmaMaxIsBitwiseSvdFrontForEqualSingularValues)
{
    // 2.5 x the unitary DFT matrix and 2.5 x a Householder reflector:
    // every singular value is 2.5, so svd()'s sort sees only ties.
    const std::size_t n = 5;
    const double pi = std::acos(-1.0);
    CMatrix dft(n, n);
    Matrix u = test::randomMatrix(n, 1, 4300);
    Matrix householder = Matrix::identity(n);
    const double uu = (u.transpose() * u)(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
            const double th = -2.0 * pi * static_cast<double>(j * k) /
                              static_cast<double>(n);
            dft(j, k) = Complex(std::cos(th), std::sin(th)) *
                        (2.5 / std::sqrt(static_cast<double>(n)));
            householder(j, k) = 2.5 * (householder(j, k) -
                                       2.0 * u(j, 0) * u(k, 0) / uu);
        }
    }
    EXPECT_NEAR(sigmaMax(dft), 2.5, 1e-12);
    EXPECT_NEAR(sigmaMax(householder), 2.5, 1e-12);
    EXPECT_EQ(sigmaMax(dft), svd(dft).s.front());
    EXPECT_EQ(sigmaMax(householder), svd(householder).s.front());
    CMatrix wide = dft.block(0, 0, 3, n);
    EXPECT_EQ(sigmaMax(wide), svd(wide).s.front());
}

TEST(Pinv, LeftInverseOfFullColumnRank)
{
    Matrix a = test::randomMatrix(7, 3, 39);
    Matrix p = pinv(a);
    EXPECT_TRUE((p * a).isApprox(Matrix::identity(3), 1e-9));
}

TEST(Pinv, HandlesRankDeficiency)
{
    Matrix u = test::randomMatrix(4, 1, 40);
    Matrix v = test::randomMatrix(1, 4, 41);
    Matrix a = u * v;  // rank 1
    Matrix p = pinv(a);
    // Moore-Penrose conditions: A p A = A, p A p = p.
    EXPECT_TRUE((a * p * a).isApprox(a, 1e-8));
    EXPECT_TRUE((p * a * p).isApprox(p, 1e-8));
}

/** Property sweep: sigma_max(A) equals sqrt(lambda_max(A^T A)). */
class SvdSigmaProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SvdSigmaProperty, MatchesGram)
{
    int n = GetParam();
    Matrix a = test::randomMatrix(n, n, 1300 + n);
    Svd d = svd(a);
    // Largest eigenvalue of the Gram matrix = sigma_max^2, verified
    // via the Rayleigh quotient with the corresponding right vector.
    Matrix v0 = d.v.col(0);
    Matrix gram_v = a.transpose() * (a * v0);
    Matrix expected = (d.s[0] * d.s[0]) * v0;
    EXPECT_TRUE(gram_v.isApprox(expected, 1e-7 * (1.0 + d.s[0] * d.s[0])));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdSigmaProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace yukta::linalg
