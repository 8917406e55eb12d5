// Tests for the Fig. 3 nominal validation step.
#include <gtest/gtest.h>

#include "core/toy_layer.h"
#include "core/validation.h"

namespace yukta::core {
namespace {

/** The toy layer's design, synthesized through the real flow. */
LayerDesign
makeToyDesign()
{
    DesignOptions options;
    options.arx = test::toyArx();
    options.dk.max_iterations = 1;
    options.dk.bisection_steps = 10;
    options.dk.mu_grid = 12;
    auto design =
        designSsvLayer(test::toySpec(), test::toyRecords(), 1, options);
    EXPECT_TRUE(design.has_value());
    return *design;
}

TEST(Validation, NominalLoopStableAndBounded)
{
    LayerDesign design = makeToyDesign();
    NominalValidation v = validateNominal(design, 1.0, 150);
    EXPECT_TRUE(v.stable);
    EXPECT_TRUE(v.within_bounds) << summarize(v);
    ASSERT_EQ(v.steady_deviation.size(), 2u);
    for (int s : v.settle_periods) {
        EXPECT_GE(s, 0);
        EXPECT_LT(s, 150);
    }
}

TEST(Validation, SummaryMentionsVerdict)
{
    LayerDesign design = makeToyDesign();
    NominalValidation v = validateNominal(design, 1.0, 100);
    std::string s = summarize(v);
    EXPECT_NE(s.find("stable"), std::string::npos);
    EXPECT_NE(s.find("bounds"), std::string::npos);
}

TEST(Validation, LargeStepsReportHonestly)
{
    LayerDesign design = makeToyDesign();
    // A 30-bound step may or may not settle within the horizon, but
    // the validator must never report out-of-bounds as within.
    NominalValidation v = validateNominal(design, 30.0, 60);
    for (std::size_t i = 0; i < v.steady_deviation.size(); ++i) {
        if (v.steady_deviation[i] > design.spec.outputs[i].bound()) {
            EXPECT_FALSE(v.within_bounds);
        }
    }
}

}  // namespace
}  // namespace yukta::core
