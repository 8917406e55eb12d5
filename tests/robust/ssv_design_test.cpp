// Tests for weights, D-K iteration, and the designer-facing SSV
// synthesis entry point.
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "control/discretize.h"
#include "control/interconnect.h"
#include "linalg/test_util.h"
#include "robust/dk.h"
#include "robust/ssv_design.h"
#include "robust/weights.h"

namespace yukta::robust {
namespace {

using control::StateSpace;
using linalg::Matrix;
using linalg::Vector;

TEST(Weights, MakeWeightGains)
{
    StateSpace w = makeWeight(10.0, 1.0, 0.5);
    EXPECT_NEAR(w.dcGain()(0, 0), 10.0, 1e-10);
    // High-frequency gain approaches hf.
    EXPECT_NEAR(std::abs(w.freqResponse(1e5)(0, 0)), 0.5, 1e-3);
    EXPECT_THROW(makeWeight(1.0, 0.0), std::invalid_argument);
}

TEST(Weights, DiagonalWeightIsDecoupled)
{
    StateSpace w = makeDiagonalWeight({2.0, 3.0}, 1.0);
    Matrix dc = w.dcGain();
    EXPECT_NEAR(dc(0, 0), 2.0, 1e-10);
    EXPECT_NEAR(dc(1, 1), 3.0, 1e-10);
    EXPECT_NEAR(dc(0, 1), 0.0, 1e-12);
    EXPECT_THROW(makeDiagonalWeight({}, 1.0), std::invalid_argument);
}

/** A small two-input, two-output, one-external-signal test model. */
SsvSpec
makeTestSpec(double guardband = 0.4)
{
    // Discrete 2-state coupled plant, [u1 u2 e] -> [y1 y2].
    Matrix a{{0.6, 0.1}, {0.05, 0.7}};
    Matrix b{{0.5, 0.1, 0.1}, {0.1, 0.4, 0.05}};
    Matrix c{{1.0, 0.2}, {0.1, 1.0}};
    Matrix d(2, 3);
    SsvSpec spec;
    spec.model = StateSpace(a, b, c, d, 0.5);
    spec.num_inputs = 2;
    spec.num_external = 1;
    spec.in_min = {0.0, 0.0};
    spec.in_max = {4.0, 2.0};
    spec.in_step = {1.0, 0.1};
    spec.in_weight = {1.0, 1.0};
    spec.out_bound = {0.4, 0.3};
    spec.out_range = {2.0, 1.5};
    spec.guardband = guardband;
    spec.max_order = 12;
    spec.dk.max_iterations = 2;
    spec.dk.mu_grid = 16;
    spec.dk.bisection_steps = 12;
    return spec;
}

TEST(SsvDesign, GeneralizedPlantShapes)
{
    SsvSpec spec = makeTestSpec();
    StateSpace pc = buildGeneralizedPlant(spec, true);
    StateSpace pd = buildGeneralizedPlant(spec, false);
    PlantPartition part = ssvPartition(spec);
    // O=2, I=2, E=1: nw = 2+2+2+1 = 7, nu = 2, nz = 2+2+2+2 = 8,
    // ny = 3.
    EXPECT_EQ(part.nw, 7u);
    EXPECT_EQ(part.nu, 2u);
    EXPECT_EQ(part.nz, 8u);
    EXPECT_EQ(part.ny, 3u);
    EXPECT_EQ(pc.numInputs(), part.nw + part.nu);
    EXPECT_EQ(pc.numOutputs(), part.nz + part.ny);
    EXPECT_TRUE(pc.isContinuous());
    EXPECT_TRUE(pd.isDiscrete());

    // Continuous plant must have D11 = 0 (DGKF assumption).
    Matrix d11 = pc.d.block(0, 0, part.nz, part.nw);
    EXPECT_LT(d11.maxAbs(), 1e-12);
}

TEST(SsvDesign, BlockStructureMatchesPartition)
{
    SsvSpec spec = makeTestSpec();
    BlockStructure s = ssvBlockStructure(spec);
    PlantPartition part = ssvPartition(spec);
    EXPECT_EQ(s.numBlocks(), 3u);
    EXPECT_EQ(s.totalOutputs(), part.nw);
    EXPECT_EQ(s.totalInputs(), part.nz);
}

TEST(SsvDesign, SynthesisProducesCertifiedController)
{
    SsvSpec spec = makeTestSpec();
    auto ctrl = ssvSynthesize(spec);
    ASSERT_TRUE(ctrl.has_value());
    // Controller ports: dy = [r - y (2); e (1)] -> u (2).
    EXPECT_EQ(ctrl->k.numInputs(), 3u);
    EXPECT_EQ(ctrl->k.numOutputs(), 2u);
    EXPECT_TRUE(ctrl->k.isDiscrete());
    EXPECT_LE(ctrl->k.numStates(), 12u);
    EXPECT_GT(ctrl->mu_peak, 0.0);
    EXPECT_NEAR(ctrl->min_s * ctrl->mu_peak, 1.0, 1e-9);
    // Guaranteed bounds = max(1, mu) * B.
    double inflate = std::max(1.0, ctrl->mu_peak);
    EXPECT_NEAR(ctrl->guaranteed_bounds[0], inflate * 0.4, 1e-12);
    EXPECT_NEAR(ctrl->guaranteed_bounds[1], inflate * 0.3, 1e-12);
}

TEST(SsvDesign, ClosedLoopTracksTargets)
{
    SsvSpec spec = makeTestSpec();
    auto ctrl = ssvSynthesize(spec);
    ASSERT_TRUE(ctrl.has_value());

    // Simulate the nominal loop: plant + controller, constant targets.
    StateSpace g = spec.model;
    Vector xg = Vector::zeros(g.numStates());
    Vector xk = Vector::zeros(ctrl->k.numStates());
    Vector y{0.0, 0.0};
    Vector targets{1.0, 0.5};
    double ext = 0.2;
    Vector u{0.0, 0.0};
    for (int t = 0; t < 300; ++t) {
        Vector dy{targets[0] - y[0], targets[1] - y[1], ext};
        u = stepOnce(ctrl->k, xk, dy);
        // Clamp to the input ranges like the real actuators would.
        for (std::size_t i = 0; i < 2; ++i) {
            u[i] = std::min(spec.in_max[i], std::max(spec.in_min[i], u[i]));
        }
        Vector ue{u[0], u[1], ext};
        y = stepOnce(g, xg, ue);
    }
    // Steady-state tracking within the designed bounds.
    EXPECT_LT(std::abs(targets[0] - y[0]), spec.out_bound[0]);
    EXPECT_LT(std::abs(targets[1] - y[1]), spec.out_bound[1]);
}

TEST(SsvDesign, SpecValidation)
{
    SsvSpec spec = makeTestSpec();
    spec.in_weight = {1.0};  // wrong size
    EXPECT_THROW(ssvSynthesize(spec), std::invalid_argument);

    spec = makeTestSpec();
    spec.guardband = -0.1;
    EXPECT_THROW(ssvSynthesize(spec), std::invalid_argument);

    spec = makeTestSpec();
    spec.out_bound = {0.4, -0.3};
    EXPECT_THROW(ssvSynthesize(spec), std::invalid_argument);

    spec = makeTestSpec();
    spec.model = StateSpace(spec.model.a, spec.model.b, spec.model.c,
                            spec.model.d, 0.0);  // continuous
    EXPECT_THROW(ssvSynthesize(spec), std::invalid_argument);
}

TEST(SsvDesign, LargerGuardbandWeakensCertificate)
{
    auto small = ssvSynthesize(makeTestSpec(0.2));
    auto large = ssvSynthesize(makeTestSpec(1.5));
    ASSERT_TRUE(small && large);
    // More uncertainty cannot improve the certified SSV.
    EXPECT_GE(large->mu_peak, small->mu_peak - 0.1);
}

TEST(Dk, StructureMismatchThrows)
{
    SsvSpec spec = makeTestSpec();
    StateSpace pc = buildGeneralizedPlant(spec, true);
    PlantPartition part = ssvPartition(spec);
    BlockStructure wrong;
    wrong.add("only", 1, 1);
    EXPECT_THROW(dkSynthesize(pc, part, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace yukta::robust
