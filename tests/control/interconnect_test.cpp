#include "control/interconnect.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::control {
namespace {

using linalg::Complex;
using linalg::Matrix;

StateSpace
lag(double pole, double gain, double ts)
{
    return StateSpace(Matrix{{pole}}, Matrix{{gain * (1.0 - pole)}},
                      Matrix{{1.0}}, Matrix{{0.0}}, ts);
}

/** Frequency-domain check helper: compares responses at several w. */
void
expectSameResponse(const StateSpace& g1, const StateSpace& g2, double tol)
{
    for (double w : {0.0, 0.1, 0.5, 1.0, 2.0}) {
        auto r1 = g1.freqResponse(w);  // yukta-lint: allow(freq-loop)
        auto r2 = g2.freqResponse(w);  // yukta-lint: allow(freq-loop)
        ASSERT_EQ(r1.rows(), r2.rows());
        ASSERT_EQ(r1.cols(), r2.cols());
        EXPECT_TRUE(r1.isApprox(r2, tol)) << "at w=" << w;
    }
}

TEST(Series, GainComposition)
{
    StateSpace g1 = lag(0.5, 2.0, 1.0);
    StateSpace g2 = lag(0.3, 3.0, 1.0);
    StateSpace s = series(g1, g2);
    EXPECT_EQ(s.numStates(), 2u);
    EXPECT_NEAR(s.dcGain()(0, 0), 6.0, 1e-10);
}

TEST(Series, FrequencyDomainMatchesProduct)
{
    StateSpace g1 = lag(0.6, 1.5, 1.0);
    StateSpace g2 = lag(0.2, 0.7, 1.0);
    StateSpace s = series(g1, g2);
    for (double w : {0.1, 0.7, 2.0}) {
        // yukta-lint: allow(freq-loop) pointwise oracle comparison
        auto prod = g2.freqResponse(w) * g1.freqResponse(w);
        // yukta-lint: allow(freq-loop) pointwise oracle comparison
        EXPECT_TRUE(s.freqResponse(w).isApprox(prod, 1e-10));
    }
}

TEST(Series, PortMismatchThrows)
{
    StateSpace g1 = StateSpace::gain(Matrix(2, 1), 1.0);
    StateSpace g2 = StateSpace::gain(Matrix(1, 1), 1.0);
    EXPECT_THROW(series(g1, g2), std::invalid_argument);
}

TEST(Series, TimebaseMismatchThrows)
{
    EXPECT_THROW(series(lag(0.5, 1.0, 1.0), lag(0.5, 1.0, 0.5)),
                 std::invalid_argument);
}

TEST(Append, BlockDiagonalPorts)
{
    StateSpace a = append(lag(0.5, 2.0, 1.0), lag(0.3, 3.0, 1.0));
    EXPECT_EQ(a.numInputs(), 2u);
    EXPECT_EQ(a.numOutputs(), 2u);
    Matrix dc = a.dcGain();
    EXPECT_NEAR(dc(0, 0), 2.0, 1e-10);
    EXPECT_NEAR(dc(1, 1), 3.0, 1e-10);
    EXPECT_NEAR(dc(0, 1), 0.0, 1e-12);
}

TEST(LftLower, IdentityPlantPassthrough)
{
    // P = [0 I; I 0] (z = u, y = w): closing with K makes w -> z = K w.
    Matrix d{{0.0, 1.0}, {1.0, 0.0}};
    StateSpace p = StateSpace::gain(d, 1.0);
    StateSpace k = lag(0.5, 2.0, 1.0);
    StateSpace cl = lftLower(p, k, 1, 1);
    expectSameResponse(cl, k, 1e-10);
}

TEST(LftLower, RecoversFeedbackLoop)
{
    // Standard tracking setup: z = r - G u, y = r - G u.
    // Closing with K: z = (I + GK)^{-1} r  (sensitivity).
    StateSpace g = lag(0.5, 4.0, 1.0);
    std::size_t n = g.numStates();
    Matrix a = g.a;
    Matrix b = hstack(Matrix::zeros(n, 1), g.b);
    Matrix c = vstack(-1.0 * g.c, -1.0 * g.c);
    Matrix d{{1.0, 0.0}, {1.0, 0.0}};
    StateSpace p(a, b, c, d, 1.0);

    StateSpace k = StateSpace::gain(Matrix::identity(1), 1.0);
    StateSpace cl = lftLower(p, k, 1, 1);

    // Expected sensitivity: 1 / (1 + G).
    for (double w : {0.0, 0.2, 1.0}) {
        Complex gw = g.freqResponse(w)(0, 0);  // yukta-lint: allow(freq-loop)
        Complex expect = Complex(1.0, 0.0) / (Complex(1.0, 0.0) + gw);
        // yukta-lint: allow(freq-loop) pointwise oracle comparison
        EXPECT_NEAR(std::abs(cl.freqResponse(w)(0, 0) - expect), 0.0, 1e-10);
    }
}

TEST(LftLower, PortMismatchThrows)
{
    StateSpace p = StateSpace::gain(Matrix(2, 2), 1.0);
    StateSpace k = StateSpace::gain(Matrix(2, 1), 1.0);
    EXPECT_THROW(lftLower(p, k, 1, 1), std::invalid_argument);
    EXPECT_THROW(lftLower(p, k, 3, 1), std::invalid_argument);
}

}  // namespace
}  // namespace yukta::control
