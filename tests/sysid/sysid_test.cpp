#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/test_util.h"
#include "support/excitation.h"
#include "sysid/arx.h"

namespace yukta::sysid {
namespace {

using control::StateSpace;
using linalg::Matrix;
using linalg::Vector;

TEST(Excitation, PrbsTwoLevels)
{
    auto sig = prbs(200, -1.0, 1.0, 1);
    std::set<double> levels(sig.begin(), sig.end());
    EXPECT_LE(levels.size(), 2u);
    for (double v : sig) {
        EXPECT_TRUE(v == -1.0 || v == 1.0);  // yukta-lint: allow(float-eq)
    }
    // Roughly balanced.
    double mean = 0.0;
    for (double v : sig) {
        mean += v;
    }
    EXPECT_LT(std::abs(mean / sig.size()), 0.4);
}

TEST(Excitation, PrbsHoldRepeats)
{
    auto sig = prbs(100, 0.0, 1.0, 5);
    for (std::size_t i = 0; i < sig.size(); ++i) {
        EXPECT_EQ(sig[i], sig[i - i % 5]);
    }
    EXPECT_THROW(prbs(10, 0.0, 1.0, 0), std::invalid_argument);
}

TEST(Excitation, StaircaseStaysOnGrid)
{
    auto sig = randomStaircase(500, 0.2, 2.0, 0.1, 4, 42);
    for (double v : sig) {
        EXPECT_GE(v, 0.2 - 1e-12);
        EXPECT_LE(v, 2.0 + 1e-12);
        double steps = (v - 0.2) / 0.1;
        EXPECT_NEAR(steps, std::round(steps), 1e-9);
    }
}

TEST(Excitation, MultiChannelShapes)
{
    auto sig = multiChannelExcitation(100, {0.0, 1.0}, {1.0, 4.0},
                                      {0.5, 1.0}, 3, 7);
    ASSERT_EQ(sig.size(), 100u);
    EXPECT_EQ(sig[0].size(), 2u);
    EXPECT_THROW(
        multiChannelExcitation(10, {0.0}, {1.0, 2.0}, {0.1}, 3, 7),
        std::invalid_argument);
}

/** Generates data from a known ARX system plus optional noise. */
IoData
simulateKnownSystem(std::size_t steps, double noise, unsigned seed)
{
    // y(t) = 0.6 y(t-1) - 0.1 y(t-2) + 0.5 u(t-1) + 0.2 u(t-2).
    IoData data;
    auto u = prbs(steps, -1.0, 1.0, 3, 0xBEEF + seed);
    std::mt19937 rng(seed);
    // Built only for noisy data: a normal_distribution's stddev must be
    // positive.
    std::optional<std::normal_distribution<double>> dist;
    if (noise > 0.0) {
        dist.emplace(0.0, noise);
    }
    double y1 = 0.0;
    double y2 = 0.0;
    double u1 = 0.0;
    double u2 = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
        double y = 0.6 * y1 - 0.1 * y2 + 0.5 * u1 + 0.2 * u2;
        if (dist) {
            y += (*dist)(rng);
        }
        data.u.push_back(Vector{u[t]});
        data.y.push_back(Vector{y});
        y2 = y1;
        y1 = y;
        u2 = u1;
        u1 = u[t];
    }
    return data;
}

TEST(Arx, RecoversKnownCoefficients)
{
    IoData data = simulateKnownSystem(600, 0.0, 1);
    ArxOptions opt;
    opt.na = 2;
    opt.nb = 2;
    opt.ridge = 0.0;
    ArxModel m = identifyArx(data, 0.5, opt);
    EXPECT_NEAR(m.aCoeff(0)(0, 0), 0.6, 1e-6);
    EXPECT_NEAR(m.aCoeff(1)(0, 0), -0.1, 1e-6);
    EXPECT_NEAR(m.bCoeff(0)(0, 0), 0.5, 1e-6);
    EXPECT_NEAR(m.bCoeff(1)(0, 0), 0.2, 1e-6);
}

TEST(Arx, FitHighOnCleanData)
{
    IoData data = simulateKnownSystem(600, 0.0, 2);
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-9});
    auto pfit = predictionFit(m, data);
    auto sfit = simulationFit(m, data);
    ASSERT_EQ(pfit.size(), 1u);
    EXPECT_GT(pfit[0], 99.0);
    EXPECT_GT(sfit[0], 95.0);
}

TEST(Arx, FitDegradesGracefullyWithNoise)
{
    IoData data = simulateKnownSystem(800, 0.05, 3);
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-6});
    auto pfit = predictionFit(m, data);
    EXPECT_GT(pfit[0], 60.0);
    EXPECT_LT(pfit[0], 100.0);
}

TEST(Arx, StateSpaceMatchesPrediction)
{
    IoData data = simulateKnownSystem(400, 0.0, 4);
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-9});
    StateSpace ss = m.toStateSpace();
    // Strictly proper, correct port counts.
    EXPECT_EQ(ss.numInputs(), 1u);
    EXPECT_EQ(ss.numOutputs(), 1u);
    EXPECT_LT(ss.d.maxAbs(), 1e-12);
    EXPECT_TRUE(ss.isDiscrete());
    // Free-run simulation reproduces the clean data.
    auto sfit = simulationFit(m, data);
    EXPECT_GT(sfit[0], 99.0);
}

TEST(Arx, MimoIdentification)
{
    // 2-in 2-out coupled discrete plant simulated directly.
    Matrix a{{0.7, 0.1}, {0.0, 0.5}};
    Matrix b{{0.4, 0.1}, {0.2, 0.3}};
    Matrix c{{1.0, 0.0}, {0.3, 1.0}};
    StateSpace plant(a, b, c, Matrix(2, 2), 0.5);

    auto u = multiChannelExcitation(800, {-1.0, -1.0}, {1.0, 1.0},
                                    {0.5, 0.25}, 3, 11);
    IoData data;
    Vector x = Vector::zeros(2);
    for (const auto& ut : u) {
        Vector y = stepOnce(plant, x, ut);
        data.u.push_back(ut);
        data.y.push_back(y);
    }
    ArxModel m = identifyArx(data, 0.5, {4, 4, 1e-8});
    auto pfit = predictionFit(m, data);
    ASSERT_EQ(pfit.size(), 2u);
    EXPECT_GT(pfit[0], 98.0);
    EXPECT_GT(pfit[1], 98.0);
    // The identified state space should be stable like the source.
    EXPECT_TRUE(m.toStateSpace().isStable(1e-6));
}

TEST(Arx, HandlesOperatingPointOffsets)
{
    // Same known system but shifted by constant offsets.
    IoData data = simulateKnownSystem(600, 0.0, 5);
    for (auto& ut : data.u) {
        ut[0] += 3.0;
    }
    for (auto& yt : data.y) {
        yt[0] += 10.0;
    }
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-9});
    auto pfit = predictionFit(m, data);
    EXPECT_GT(pfit[0], 99.0);
    // Sample means sit near the applied offsets (PRBS is only roughly
    // balanced, so the tolerance is loose).
    EXPECT_NEAR(m.uMean()[0], 3.0, 0.3);
    EXPECT_NEAR(m.yMean()[0], 10.0, 1.0);
}

TEST(Arx, InputValidation)
{
    IoData data;
    data.u.resize(5, Vector{0.0});
    data.y.resize(4, Vector{0.0});
    EXPECT_THROW(identifyArx(data, 0.5), std::invalid_argument);
    data.y.resize(5, Vector{0.0});
    EXPECT_THROW(identifyArx(data, 0.5), std::invalid_argument);  // short
}

TEST(Arx, PredictRequiresHistory)
{
    IoData data = simulateKnownSystem(100, 0.0, 6);
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-9});
    EXPECT_THROW(m.predict({Vector{0.0}}, {Vector{0.0}, Vector{0.0}}),
                 std::invalid_argument);
}

/** Property: identification is exact for arbitrary stable ARX(na). */
class ArxOrderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ArxOrderProperty, ExactRecoveryAtMatchingOrder)
{
    int na = GetParam();
    std::mt19937 rng(500 + na);
    std::uniform_real_distribution<double> dist(-0.2, 0.2);
    std::vector<double> ac(na);
    for (double& v : ac) {
        v = dist(rng);
    }
    std::vector<double> bc(na);
    for (double& v : bc) {
        v = dist(rng) + 0.3;
    }
    auto u = prbs(800, -1.0, 1.0, 2, 0xC0DE + na);
    IoData data;
    std::vector<double> yh(na, 0.0);
    std::vector<double> uh(na, 0.0);
    for (std::size_t t = 0; t < u.size(); ++t) {
        double y = 0.0;
        for (int k = 0; k < na; ++k) {
            y += ac[k] * yh[k] + bc[k] * uh[k];
        }
        data.u.push_back(Vector{u[t]});
        data.y.push_back(Vector{y});
        for (int k = na - 1; k > 0; --k) {
            yh[k] = yh[k - 1];
            uh[k] = uh[k - 1];
        }
        yh[0] = y;
        uh[0] = u[t];
    }
    ArxModel m = identifyArx(data, 0.5,
                             {static_cast<std::size_t>(na),
                              static_cast<std::size_t>(na), 0.0});
    for (int k = 0; k < na; ++k) {
        EXPECT_NEAR(m.aCoeff(k)(0, 0), ac[k], 1e-5);
        EXPECT_NEAR(m.bCoeff(k)(0, 0), bc[k], 1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, ArxOrderProperty,
                         ::testing::Values(1, 2, 3, 4, 6));

}  // namespace
}  // namespace yukta::sysid
