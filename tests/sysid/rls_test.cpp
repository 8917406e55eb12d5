#include <cmath>
#include <cstddef>
#include <deque>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/test_util.h"
#include "obs/stateio.h"
#include "support/excitation.h"
#include "sysid/arx.h"
#include "sysid/drift.h"
#include "sysid/rls.h"

namespace yukta::sysid {
namespace {

using linalg::Matrix;
using linalg::Vector;

/** Coefficients of the known SISO ARX(2) test plant. */
struct Coeffs
{
    double a1;
    double a2;
    double b1;
    double b2;
};

constexpr Coeffs kTruth{0.6, -0.1, 0.5, 0.2};

/**
 * Simulates the known plant through a sequence of coefficient
 * segments with continuous state (for step-change tracking tests).
 */
IoData simulateSegments(
    const std::vector<std::pair<std::size_t, Coeffs>>& segments,
    double noise, unsigned seed)
{
    IoData data;
    std::size_t total = 0;
    for (const auto& seg : segments) {
        total += seg.first;
    }
    auto u = prbs(total, -1.0, 1.0, 3, 0xBEEF + seed);
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
    std::size_t t = 0;
    for (const auto& seg : segments) {
        const Coeffs& c = seg.second;
        for (std::size_t s = 0; s < seg.first; ++s, ++t) {
            double y = c.a1 * y1 + c.a2 * y2 + c.b1 * u1 + c.b2 * u2;
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
    }
    return data;
}

IoData simulate(const Coeffs& c, std::size_t steps, double noise,
                unsigned seed)
{
    return simulateSegments({{steps, c}}, noise, seed);
}

/** Zero-coefficient ARX(2) seed sharing the test plant's structure. */
ArxModel zeroSeed()
{
    std::vector<Matrix> a(2, Matrix(1, 1));
    std::vector<Matrix> b(2, Matrix(1, 1));
    return ArxModel(a, b, Vector{0.0}, Vector{0.0}, 0.5, 1);
}

TEST(Rls, ConvergesToBatchLeastSquares)
{
    IoData data = simulate(kTruth, 600, 0.0, 1);
    RlsOptions opt;
    opt.forgetting = 1.0;  // Ordinary least squares, recursively.
    opt.p0 = 1e4;          // Weak prior so the warm start barely biases.
    RlsEstimator est(zeroSeed(), Vector{1.0}, Vector{1.0}, opt);
    for (std::size_t t = 0; t < data.u.size(); ++t) {
        est.update(data.u[t], data.y[t]);
    }
    ASSERT_TRUE(est.primed());
    EXPECT_EQ(est.updates(), data.u.size() - 2);

    ArxModel m = est.model();
    ArxOptions batch_opt;
    batch_opt.na = 2;
    batch_opt.nb = 2;
    batch_opt.ridge = 0.0;
    ArxModel batch = identifyArx(data, 0.5, batch_opt);

    // Both recover the exact plant, so RLS == batch within the prior's
    // vanishing bias.
    EXPECT_NEAR(m.aCoeff(0)(0, 0), kTruth.a1, 1e-4);
    EXPECT_NEAR(m.aCoeff(1)(0, 0), kTruth.a2, 1e-4);
    EXPECT_NEAR(m.bCoeff(0)(0, 0), kTruth.b1, 1e-4);
    EXPECT_NEAR(m.bCoeff(1)(0, 0), kTruth.b2, 1e-4);
    EXPECT_NEAR(m.aCoeff(0)(0, 0), batch.aCoeff(0)(0, 0), 1e-4);
    EXPECT_NEAR(m.bCoeff(0)(0, 0), batch.bCoeff(0)(0, 0), 1e-4);
}

TEST(Rls, ForgettingTracksStepChange)
{
    const Coeffs shifted{0.3, -0.1, 0.8, 0.2};
    IoData data = simulateSegments({{400, kTruth}, {400, shifted}}, 0.0, 2);

    RlsOptions track;
    track.forgetting = 0.97;
    RlsEstimator tracking(zeroSeed(), Vector{1.0}, Vector{1.0}, track);

    RlsOptions ols;
    ols.forgetting = 1.0;
    RlsEstimator averaging(zeroSeed(), Vector{1.0}, Vector{1.0}, ols);

    for (std::size_t t = 0; t < data.u.size(); ++t) {
        tracking.update(data.u[t], data.y[t]);
        averaging.update(data.u[t], data.y[t]);
    }

    ArxModel mt = tracking.model();
    EXPECT_NEAR(mt.aCoeff(0)(0, 0), shifted.a1, 0.05);
    EXPECT_NEAR(mt.bCoeff(0)(0, 0), shifted.b1, 0.05);

    // Without forgetting, the estimate straddles both regimes and ends
    // up strictly farther from the current plant.
    ArxModel ma = averaging.model();
    double err_track = std::abs(mt.aCoeff(0)(0, 0) - shifted.a1) +
                       std::abs(mt.bCoeff(0)(0, 0) - shifted.b1);
    double err_avg = std::abs(ma.aCoeff(0)(0, 0) - shifted.a1) +
                     std::abs(ma.bCoeff(0)(0, 0) - shifted.b1);
    EXPECT_GT(err_avg, err_track);
}

TEST(Rls, TraceCapBoundsCovarianceUnderQuiescence)
{
    RlsOptions opt;
    opt.forgetting = 0.98;
    opt.trace_cap = 1e6;
    opt.min_excitation = 1e-6;
    RlsEstimator est(zeroSeed(), Vector{1.0}, Vector{1.0}, opt);

    IoData warm = simulate(kTruth, 200, 0.0, 3);
    for (std::size_t t = 0; t < warm.u.size(); ++t) {
        est.update(warm.u[t], warm.y[t]);
    }
    // 5000 quiescent steps: unguarded exponential forgetting would
    // inflate trace(P) by (1/0.98)^5000 ~ e^101.
    for (int t = 0; t < 5000; ++t) {
        est.update(Vector{0.0}, Vector{0.0});
    }
    EXPECT_TRUE(std::isfinite(est.covarianceTrace()));
    EXPECT_LE(est.covarianceTrace(), opt.trace_cap * (1.0 + 1e-9));
    // The estimate must not burst either.
    ArxModel m = est.model();
    EXPECT_NEAR(m.aCoeff(0)(0, 0), kTruth.a1, 0.1);
    EXPECT_NEAR(m.bCoeff(0)(0, 0), kTruth.b1, 0.1);
}

TEST(Rls, DirectionalGuardSuspendsForgettingWhenUnexcited)
{
    RlsOptions opt;
    opt.forgetting = 0.98;
    opt.min_excitation = 1e9;  // Every update counts as unexcited.
    RlsEstimator est(zeroSeed(), Vector{1.0}, Vector{1.0}, opt);

    IoData warm = simulate(kTruth, 200, 0.0, 4);
    for (std::size_t t = 0; t < warm.u.size(); ++t) {
        est.update(warm.u[t], warm.y[t]);
    }
    double t0 = est.covarianceTrace();
    for (int t = 0; t < 2000; ++t) {
        est.update(Vector{0.0}, Vector{0.0});
    }
    // With lambda_eff pinned at 1 the RLS update only ever shrinks P.
    EXPECT_LE(est.covarianceTrace(), t0 * (1.0 + 1e-9));
}

TEST(Rls, SaveLoadRoundTripIsBitExact)
{
    IoData data = simulate(kTruth, 400, 0.02, 5);
    RlsOptions opt;
    opt.forgetting = 0.99;
    RlsEstimator a(zeroSeed(), Vector{1.0}, Vector{1.0}, opt);
    for (std::size_t t = 0; t < 300; ++t) {
        a.update(data.u[t], data.y[t]);
    }
    obs::StateWriter w;
    a.state(w);
    RlsEstimator b(zeroSeed(), Vector{1.0}, Vector{1.0}, opt);
    obs::StateReader r(w.take());
    b.state(r);

    // Continue both in lockstep; trajectories must stay identical.
    for (std::size_t t = 300; t < data.u.size(); ++t) {
        a.update(data.u[t], data.y[t]);
        b.update(data.u[t], data.y[t]);
    }
    EXPECT_EQ(a.updates(), b.updates());
    EXPECT_EQ(a.covarianceTrace(), b.covarianceTrace());
    ArxModel ma = a.model();
    ArxModel mb = b.model();
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(ma.aCoeff(k)(0, 0), mb.aCoeff(k)(0, 0));
        EXPECT_EQ(ma.bCoeff(k)(0, 0), mb.bCoeff(k)(0, 0));
    }
    EXPECT_EQ(ma.intercept()[0], mb.intercept()[0]);
}

/**
 * Replays @p data through @p model's one-step predictor, feeding the
 * errors into @p det. @return number of samples fed.
 */
std::size_t feedPredictionErrors(const ArxModel& model, const IoData& data,
                                 CusumDriftDetector& det)
{
    std::deque<Vector> yh;
    std::deque<Vector> uh;
    std::size_t fed = 0;
    for (std::size_t t = 0; t < data.u.size(); ++t) {
        if (yh.size() >= model.orderA() && uh.size() >= model.orderB()) {
            std::vector<Vector> y_hist(yh.begin(), yh.end());
            std::vector<Vector> u_hist(uh.begin(), uh.end());
            Vector e = data.y[t] - model.predict(y_hist, u_hist);
            det.update(e);
            ++fed;
        }
        yh.push_front(data.y[t]);
        uh.push_front(data.u[t]);
        if (yh.size() > model.orderA()) {
            yh.pop_back();
        }
        if (uh.size() > model.orderB()) {
            uh.pop_back();
        }
    }
    return fed;
}

TEST(Cusum, NoFalseAlarmOnOwnDataAcrossSeeds)
{
    // ARL sanity: on the plant the model was identified on, the
    // statistic must stay silent for every seed.
    int fired = 0;
    for (unsigned seed = 0; seed < 100; ++seed) {
        IoData data = simulate(kTruth, 300, 0.05, 100 + seed);
        ArxOptions opt;
        opt.na = 2;
        opt.nb = 2;
        opt.ridge = 1e-6;
        ArxModel model = identifyArx(data, 0.5, opt);
        CusumDriftDetector det(residualSigma(model, data));
        std::size_t fed = feedPredictionErrors(model, data, det);
        EXPECT_GT(fed, 250u);
        if (det.fired()) {
            ++fired;
        }
        EXPECT_LT(det.maxStat(), CusumOptions{}.threshold);
    }
    EXPECT_EQ(fired, 0);
}

TEST(Cusum, FiresOnPlantShiftAndLatches)
{
    IoData train = simulate(kTruth, 400, 0.02, 7);
    ArxOptions opt;
    opt.na = 2;
    opt.nb = 2;
    ArxModel model = identifyArx(train, 0.5, opt);
    CusumDriftDetector det(residualSigma(model, train));

    // Same structure, input gain nearly doubled: persistent prediction
    // error, so the statistic ramps and crosses.
    const Coeffs shifted{0.6, -0.1, 0.9, 0.2};
    IoData live = simulate(shifted, 400, 0.02, 8);
    feedPredictionErrors(model, live, det);
    EXPECT_TRUE(det.fired());
    EXPECT_GE(det.maxStat(), CusumOptions{}.threshold);

    // Latched until rearm.
    EXPECT_FALSE(det.update(Vector{1e6}));
    EXPECT_TRUE(det.fired());
    det.rearm();
    EXPECT_FALSE(det.fired());
    EXPECT_EQ(det.maxStat(), 0.0);
    // samples() is a lifetime counter; rearm only clears statistics.
    EXPECT_GT(det.samples(), 0u);
}

TEST(Cusum, SaveLoadRoundTripIsBitExact)
{
    CusumOptions opt;
    opt.slack_sigma = 0.5;
    opt.threshold = 1e9;  // Accumulate without firing.
    CusumDriftDetector a({1.0, 2.0}, opt);
    std::mt19937 rng(11);
    std::normal_distribution<double> dist(0.0, 2.0);
    for (int t = 0; t < 200; ++t) {
        a.update(Vector{dist(rng), dist(rng)});
    }
    obs::StateWriter w;
    a.state(w);
    CusumDriftDetector b({1.0, 2.0}, opt);
    obs::StateReader r(w.take());
    b.state(r);
    EXPECT_EQ(a.maxStat(), b.maxStat());
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.fired(), b.fired());
    for (int t = 0; t < 50; ++t) {
        Vector e{dist(rng), dist(rng)};
        EXPECT_EQ(a.update(e), b.update(e));
    }
    EXPECT_EQ(a.maxStat(), b.maxStat());
}

TEST(Arx, DegenerateExcitationFailsSoft)
{
    // All input channels constant: any fit would be regularization
    // artifact, so identification must throw the typed error instead
    // of shipping garbage coefficients.
    IoData flat_u;
    for (int t = 0; t < 100; ++t) {
        flat_u.u.push_back(Vector{1.0});
        flat_u.y.push_back(Vector{std::sin(0.3 * t)});
    }
    EXPECT_THROW(identifyArx(flat_u, 0.5, {2, 2, 1e-6}),
                 DegenerateExcitationError);

    // All output channels constant is equally degenerate.
    IoData flat_y;
    auto u = prbs(100, -1.0, 1.0, 3, 0xF00D);
    for (int t = 0; t < 100; ++t) {
        flat_y.u.push_back(Vector{u[t]});
        flat_y.y.push_back(Vector{42.0});
    }
    EXPECT_THROW(identifyArx(flat_y, 0.5, {2, 2, 1e-6}),
                 DegenerateExcitationError);
}

TEST(Arx, SingleDeadChannelDoesNotThrow)
{
    // One constant input next to a live one: fail soft, the dead
    // channel keeps unit scale and the ridge pins its coefficients.
    IoData data = simulate(kTruth, 300, 0.0, 9);
    for (auto& ut : data.u) {
        ut = Vector{ut[0], 5.0};
    }
    ArxModel m = identifyArx(data, 0.5, {2, 2, 1e-6});
    EXPECT_NEAR(m.bCoeff(0)(0, 0), kTruth.b1, 0.05);
    // Dead-channel coefficients pinned near zero by the ridge.
    EXPECT_NEAR(m.bCoeff(0)(0, 1), 0.0, 1e-3);
    auto pfit = predictionFit(m, data);
    EXPECT_GT(pfit[0], 99.0);
}

}  // namespace
}  // namespace yukta::sysid
