#include "robust/hinf.h"

#include <cmath>

#include <gtest/gtest.h>

#include "control/discretize.h"
#include "control/interconnect.h"
#include "linalg/test_util.h"
#include "robust/weights.h"

namespace yukta::robust {
namespace {

using control::StateSpace;
using linalg::Matrix;

/**
 * Builds the classic mixed-sensitivity generalized plant for a SISO
 * plant G with performance weight Wp and control weight wu:
 *   z1 = Wp (r - G u), z2 = wu * u, y = r - G u.
 */
StateSpace
mixedSensitivityPlant(const StateSpace& g, const StateSpace& wp, double wu)
{
    std::size_t n = g.numStates();
    std::size_t nw = wp.numStates();
    // States [xg; xwp].
    Matrix a(n + nw, n + nw);
    a.setBlock(0, 0, g.a);
    a.setBlock(n, 0, -1.0 * (wp.b * g.c));
    a.setBlock(n, n, wp.a);

    // Inputs [r; u].
    Matrix b(n + nw, 2);
    b.setBlock(0, 1, g.b);
    b.setBlock(n, 0, wp.b);
    b.setBlock(n, 1, -1.0 * (wp.b * g.d));

    // Outputs [z1; z2; y].
    Matrix c(3, n + nw);
    c.setBlock(0, 0, -1.0 * (wp.d * g.c));
    c.setBlock(0, n, wp.c);
    c.setBlock(2, 0, -1.0 * g.c);

    Matrix d(3, 2);
    d(0, 0) = wp.d(0, 0);
    d(0, 1) = (-1.0 * (wp.d * g.d))(0, 0);
    d(1, 1) = wu;
    d(2, 0) = 1.0;
    d(2, 1) = -g.d(0, 0);
    return StateSpace(a, b, c, d, 0.0);
}

TEST(HinfNorm, MatchesKnownFirstOrder)
{
    // G(s) = 2/(s+1): peak gain 2 at DC.
    StateSpace g(Matrix{{-1.0}}, Matrix{{2.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    EXPECT_NEAR(hinfNorm(g), 2.0, 1e-6);
}

TEST(HinfNorm, ResonantPeak)
{
    // Second-order resonance with known peak 1/(2 zeta sqrt(1-zeta^2)).
    double zeta = 0.05;
    Matrix a{{0.0, 1.0}, {-1.0, -2.0 * zeta}};
    Matrix b{{0.0}, {1.0}};
    Matrix c{{1.0, 0.0}};
    StateSpace g(a, b, c, Matrix(1, 1), 0.0);
    double expect = 1.0 / (2.0 * zeta * std::sqrt(1.0 - zeta * zeta));
    EXPECT_NEAR(hinfNorm(g, 200), expect, 0.05 * expect);
}

TEST(HinfNorm, DiscreteDcPeak)
{
    // Discrete lag with DC gain 3.
    StateSpace g(Matrix{{0.5}}, Matrix{{1.5}}, Matrix{{1.0}}, Matrix{{0.0}},
                 0.5);
    EXPECT_NEAR(hinfNorm(g), 3.0, 1e-6);
}

TEST(Hinf, SynthesizesForStablePlant)
{
    // G(s) = 1/(s+1); Wp = 0.5/(s+0.1) requires good low-freq tracking.
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace wp = makeWeight(5.0, 0.1);
    StateSpace p = mixedSensitivityPlant(g, wp, 0.1);
    PlantPartition part{1, 1, 2, 1};
    auto res = hinfSynthesize(p, part, 0.05, 1e4, 22);
    ASSERT_TRUE(res.has_value());
    // Closed loop must be stable and meet the bound.
    StateSpace cl = control::lftLower(p, res->k, part.nz, part.nw);
    EXPECT_TRUE(cl.isStable());
    EXPECT_LE(hinfNorm(cl), res->gamma * 1.01);
    // The design should beat gamma = 2 comfortably for this easy spec.
    EXPECT_LT(res->gamma, 2.0);
}

TEST(Hinf, SynthesizesForUnstablePlant)
{
    // Unstable G(s) = 1/(s-1): controller must stabilize.
    StateSpace g(Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace wp = makeWeight(2.0, 0.5);
    StateSpace p = mixedSensitivityPlant(g, wp, 0.2);
    PlantPartition part{1, 1, 2, 1};
    auto res = hinfSynthesize(p, part);
    ASSERT_TRUE(res.has_value());
    StateSpace cl = control::lftLower(p, res->k, part.nz, part.nw);
    EXPECT_TRUE(cl.isStable());
}

TEST(Hinf, TrackingPerformanceInTimeDomain)
{
    // The synthesized loop should track a step reference well at DC.
    StateSpace g(Matrix{{-0.5}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace wp = makeWeight(20.0, 0.05);  // ask for ~5% tracking error
    StateSpace p = mixedSensitivityPlant(g, wp, 0.05);
    PlantPartition part{1, 1, 2, 1};
    auto res = hinfSynthesize(p, part);
    ASSERT_TRUE(res.has_value());

    // Sensitivity at DC = |1/(1+GK)(0)| should be <= ~1/20 * gamma.
    StateSpace k = res->k;
    double g0 = g.dcGain()(0, 0);
    double k0 = k.dcGain()(0, 0);
    double sens = std::abs(1.0 / (1.0 + g0 * k0));
    EXPECT_LT(sens, res->gamma / 20.0 + 1e-6);
}

TEST(Hinf, DiscretePlantRoundTrip)
{
    // Same mixed-sensitivity design built in discrete time: the
    // wrapper should detour through d2c and return a discrete K.
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace wp = makeWeight(5.0, 0.1);
    StateSpace p = mixedSensitivityPlant(g, wp, 0.1);
    StateSpace pd = control::c2d(p, 0.5);
    PlantPartition part{1, 1, 2, 1};
    auto res = hinfSynthesize(pd, part);
    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->k.isDiscrete());
    StateSpace cl = control::lftLower(pd, res->k, part.nz, part.nw);
    EXPECT_TRUE(cl.isStable());
}

TEST(Hinf, BadPartitionThrows)
{
    StateSpace p = StateSpace::gain(Matrix::identity(3), 0.0);
    EXPECT_THROW(hinfSynthesize(p, PlantPartition{1, 1, 1, 1}),
                 std::invalid_argument);
}

/** Property: achieved norm decreases (weakly) as wu shrinks. */
class HinfWeightProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(HinfWeightProperty, FeasibleAcrossControlWeights)
{
    double wu = GetParam();
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace wp = makeWeight(4.0, 0.2);
    StateSpace p = mixedSensitivityPlant(g, wp, wu);
    PlantPartition part{1, 1, 2, 1};
    auto res = hinfSynthesize(p, part);
    ASSERT_TRUE(res.has_value());
    StateSpace cl = control::lftLower(p, res->k, part.nz, part.nw);
    EXPECT_TRUE(cl.isStable());
}

INSTANTIATE_TEST_SUITE_P(Weights, HinfWeightProperty,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0));

}  // namespace
}  // namespace yukta::robust
