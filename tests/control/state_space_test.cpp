#include "control/state_space.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::control {
namespace {

using linalg::Complex;
using linalg::Matrix;
using linalg::Vector;

StateSpace
scalarLag(double pole, double ts)
{
    // y(T+1) = pole * y(T) + (1 - pole) * u(T): unity DC gain lag.
    return StateSpace(Matrix{{pole}}, Matrix{{1.0 - pole}}, Matrix{{1.0}},
                      Matrix{{0.0}}, ts);
}

TEST(StateSpace, DimensionValidation)
{
    Matrix a(2, 2);
    Matrix b(2, 1);
    Matrix c(1, 2);
    Matrix d(1, 1);
    EXPECT_NO_THROW(StateSpace(a, b, c, d, 1.0));
    EXPECT_THROW(StateSpace(Matrix(2, 3), b, c, d, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(StateSpace(a, Matrix(3, 1), c, d, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(StateSpace(a, b, Matrix(1, 3), d, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(StateSpace(a, b, c, Matrix(2, 2), 1.0),
                 std::invalid_argument);
    EXPECT_THROW(StateSpace(a, b, c, d, -1.0), std::invalid_argument);
}

TEST(StateSpace, GainSystemHasNoStates)
{
    StateSpace g = StateSpace::gain(Matrix{{2.0, 0.0}, {0.0, 3.0}}, 1.0);
    EXPECT_EQ(g.numStates(), 0u);
    EXPECT_EQ(g.numInputs(), 2u);
    EXPECT_TRUE(g.dcGain().isApprox(Matrix{{2.0, 0.0}, {0.0, 3.0}}));
}

TEST(StateSpace, PolesOfDiagonalSystem)
{
    StateSpace sys(Matrix::diag({0.5, -0.25}), Matrix(2, 1), Matrix(1, 2),
                   Matrix(1, 1), 1.0);
    auto p = sys.poles();
    ASSERT_EQ(p.size(), 2u);
}

TEST(StateSpace, StabilityDiscrete)
{
    EXPECT_TRUE(scalarLag(0.9, 1.0).isStable());
    EXPECT_FALSE(scalarLag(1.1, 1.0).isStable());
    EXPECT_FALSE(scalarLag(1.0, 1.0).isStable());
}

TEST(StateSpace, StabilityContinuous)
{
    StateSpace stable(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                      Matrix{{0.0}});
    StateSpace unstable(Matrix{{0.5}}, Matrix{{1.0}}, Matrix{{1.0}},
                        Matrix{{0.0}});
    EXPECT_TRUE(stable.isStable());
    EXPECT_FALSE(unstable.isStable());
}

TEST(StateSpace, DcGainOfLag)
{
    EXPECT_NEAR(scalarLag(0.7, 1.0).dcGain()(0, 0), 1.0, 1e-12);
}

TEST(StateSpace, FreqResponseContinuousIntegratorLike)
{
    // G(s) = 1/(s+1): |G(j1)| = 1/sqrt(2).
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    auto r = g.freqResponse(1.0);
    EXPECT_NEAR(std::abs(r(0, 0)), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(StateSpace, FreqResponseDiscreteAtNyquist)
{
    // y(T+1) = u(T): G(z) = 1/z; at w*ts = pi, G = -1.
    StateSpace g(Matrix{{0.0}}, Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{0.0}},
                 1.0);
    auto r = g.freqResponse(M_PI);
    EXPECT_NEAR(r(0, 0).real(), -1.0, 1e-12);
    EXPECT_NEAR(r(0, 0).imag(), 0.0, 1e-12);
}

TEST(StateSpace, ScaledAppliesGains)
{
    StateSpace g = scalarLag(0.5, 1.0);
    StateSpace s = g.scaled(Matrix{{2.0}}, Matrix{{3.0}});
    EXPECT_NEAR(s.dcGain()(0, 0), 6.0, 1e-12);
}

TEST(Simulate, LagStepConvergesToDc)
{
    StateSpace g = scalarLag(0.8, 1.0);
    auto y = stepResponse(g, 0, 100);
    EXPECT_NEAR(y.back()[0], 1.0, 1e-8);
    // Monotone approach for a first-order lag.
    for (std::size_t i = 1; i < y.size(); ++i) {
        EXPECT_GE(y[i][0] + 1e-12, y[i - 1][0]);
    }
}

TEST(Simulate, RejectsContinuous)
{
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    EXPECT_THROW(simulate(g, {Vector{1.0}}), std::invalid_argument);
}

TEST(Simulate, StepOnceChecksDimensions)
{
    StateSpace g = scalarLag(0.8, 1.0);
    Vector x = Vector::zeros(1);
    EXPECT_THROW(stepOnce(g, x, Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Simulate, StepResponseBadIndexThrows)
{
    EXPECT_THROW(stepResponse(scalarLag(0.5, 1.0), 3, 5),
                 std::invalid_argument);
}

TEST(Simulate, MatchesManualRecursion)
{
    StateSpace g(Matrix{{0.5, 0.1}, {0.0, 0.3}}, Matrix{{1.0}, {0.5}},
                 Matrix{{1.0, 1.0}}, Matrix{{0.2}}, 1.0);
    std::vector<Vector> u = {Vector{1.0}, Vector{-1.0}, Vector{0.5}};
    auto y = simulate(g, u);
    // Manual recursion.
    Vector x = Vector::zeros(2);
    for (std::size_t t = 0; t < u.size(); ++t) {
        Vector expect = g.c * x + g.d * u[t];
        EXPECT_NEAR(y[t][0], expect[0], 1e-12);
        x = g.a * x + g.b * u[t];
    }
}

/** Property: frequency response at w=0 equals dcGain for stable systems. */
class FreqDcProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(FreqDcProperty, MatchesAtZero)
{
    double pole = GetParam();
    StateSpace g = scalarLag(pole, 0.5);
    auto r = g.freqResponse(0.0);
    EXPECT_NEAR(r(0, 0).real(), g.dcGain()(0, 0), 1e-12);
    EXPECT_NEAR(r(0, 0).imag(), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Poles, FreqDcProperty,
                         ::testing::Values(0.1, 0.5, 0.9, -0.3, 0.99));

}  // namespace
}  // namespace yukta::control
