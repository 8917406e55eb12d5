// Pins the D-K synthesis output bit-for-bit against the values the
// pre-batched-engine code produced, proving the batched frequency-
// response engine did not perturb the synthesized controller.
//
// The pinned configuration uses max_iterations = 1 (the golden-trace
// configuration): there the K-step consumes no mu-sweep values, so
// the controller must be IDENTICAL at the bit level. With two or
// more iterations the D-scales fitted from the mu sweep feed the
// next K-step, and the sweep's last-bit roundoff (batched Hessenberg
// vs dense LU arithmetic) legitimately shifts K by ~1e-12 relative
// while gamma and the certified bounds stay put — that path is
// covered by the looser gamma assertion below.
//
// DkResult carries no certificate (a single round sweeps nothing), so
// each test recomputes the mu peak of the returned K's loop itself.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "control/interconnect.h"
#include "robust/dk.h"
#include "robust/mu.h"
#include "robust/ssv_design.h"

namespace {

using yukta::control::StateSpace;
using yukta::linalg::Matrix;

/** %.17g canonicalization, same scheme as the golden traces. */
void
appendMatrix(std::string* out, const Matrix& m)
{
    char buf[64];
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            std::snprintf(buf, sizeof buf, "%.17g;", m(r, c));
            *out += buf;
        }
    }
}

std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 1099511628211ull;
    }
    return h;
}

/** The small SSV spec the fingerprint was captured from. */
yukta::robust::SsvSpec
pinnedSpec(int iterations)
{
    Matrix a{{0.6, 0.1}, {0.05, 0.7}};
    Matrix b{{0.5, 0.1, 0.1}, {0.1, 0.4, 0.05}};
    Matrix c{{1.0, 0.2}, {0.1, 1.0}};
    Matrix d(2, 3);
    yukta::robust::SsvSpec spec;
    spec.model = StateSpace(a, b, c, d, 0.5);
    spec.num_inputs = 2;
    spec.num_external = 1;
    spec.in_min = {0.0, 0.0};
    spec.in_max = {4.0, 2.0};
    spec.in_step = {1.0, 0.1};
    spec.in_weight = {1.0, 1.0};
    spec.out_bound = {0.4, 0.3};
    spec.out_range = {2.0, 1.5};
    spec.guardband = 0.4;
    spec.max_order = 12;
    spec.dk.max_iterations = iterations;
    spec.dk.mu_grid = 12;
    spec.dk.bisection_steps = 8;
    return spec;
}

std::optional<yukta::robust::DkResult>
synthesize(int iterations)
{
    yukta::robust::SsvSpec spec = pinnedSpec(iterations);
    StateSpace pc = yukta::robust::buildGeneralizedPlant(spec, true);
    return yukta::robust::dkSynthesize(
        pc, yukta::robust::ssvPartition(spec),
        yukta::robust::ssvBlockStructure(spec), spec.dk);
}

/** The mu peak of @p k's loop: the sweep dkSynthesize would run. */
double
muPeak(const StateSpace& k)
{
    const yukta::robust::SsvSpec spec = pinnedSpec(1);
    const yukta::robust::PlantPartition part =
        yukta::robust::ssvPartition(spec);
    const StateSpace loop = yukta::control::lftLower(
        yukta::robust::buildGeneralizedPlant(spec, true), k, part.nz,
        part.nw);
    return yukta::robust::muFrequencySweep(
               loop, yukta::robust::ssvBlockStructure(spec),
               spec.dk.mu_grid)
        .peak;
}

TEST(DkPin, SingleIterationControllerIsBitIdenticalToPrePr)
{
    auto dk = synthesize(1);
    ASSERT_TRUE(dk.has_value());
    ASSERT_EQ(dk->k.numStates(), 8u);

    std::string canon;
    appendMatrix(&canon, dk->k.a);
    appendMatrix(&canon, dk->k.b);
    appendMatrix(&canon, dk->k.c);
    appendMatrix(&canon, dk->k.d);
    char buf[64];
    std::snprintf(buf, sizeof buf, "gamma=%.17g;", dk->gamma);
    canon += buf;

    // Captured from the pre-PR build (dense pointwise csolve path).
    EXPECT_EQ(fnv1a(canon), 0x5877b8583e06308aull)
        << "controller bits drifted from the pre-batched-engine "
           "baseline; canon=" << canon;
    EXPECT_EQ(dk->gamma, 5.8841650536166137);
    EXPECT_EQ(dk->iterations, 1);
    // The mu certificate may move in its last bits (batched sweep
    // arithmetic) but not at any meaningful precision.
    EXPECT_NEAR(muPeak(dk->k), 3.4952599793293251, 1e-9);
}

TEST(DkPin, TwoIterationGammaIsPreserved)
{
    auto dk = synthesize(2);
    ASSERT_TRUE(dk.has_value());
    // Iteration 2 consumes mu-sweep D-scales, so K's bits may shift
    // at roundoff level; the synthesis outcome must not.
    EXPECT_EQ(dk->gamma, 3.4826209944140172);
    const double peak = muPeak(dk->k);
    EXPECT_NEAR(peak, 3.477454448934834, 1e-7);
    EXPECT_EQ(dk->k.numStates(), 8u);
    // The second round is kept because its K certifies a lower peak
    // than the single-round K.
    EXPECT_EQ(dk->iterations, 2);
    auto single = synthesize(1);
    ASSERT_TRUE(single.has_value());
    EXPECT_LT(peak, muPeak(single->k));
}

}  // namespace
