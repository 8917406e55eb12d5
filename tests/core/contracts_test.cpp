// Tests for the YUKTA_CHECKS contracts layer (src/core/contracts.h).
//
// The binary is built twice by CI: once in the default configuration
// (checks compiled out) and once with -DYUKTA_CHECKS=ON. The #ifdef
// blocks below pick the assertions that apply to each mode, so the
// same source passes in both.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "controllers/ssv_runtime.h"
#include "core/contracts.h"
#include "linalg/cmatrix.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "linalg/vector.h"

namespace yukta {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

#ifdef YUKTA_CHECKS
/** The runtime fixture used by runtime_test.cpp, reduced: one state,
 *  3 dy inputs (2 deviations + 1 external), 2 physical inputs. */
controllers::SsvRuntime makeRuntime()
{
    robust::SsvController ctrl;
    linalg::Matrix a{{0.5}};
    linalg::Matrix b{{0.2, 0.1, 0.05}};
    linalg::Matrix c{{1.0}, {0.5}};
    linalg::Matrix d{{0.4, 0.0, 0.0}, {0.0, 0.3, 0.1}};
    ctrl.k = control::StateSpace(a, b, c, d, 0.5);
    ctrl.mu_peak = 0.8;
    ctrl.min_s = 1.25;
    ctrl.design_bounds = {1.0, 0.5};
    ctrl.guaranteed_bounds = {1.0, 0.5};
    std::vector<controllers::InputGrid> grids{{0.0, 4.0, 1.0},
                                              {0.2, 2.0, 0.1}};
    return controllers::SsvRuntime(ctrl, grids, linalg::Vector{2.0, 1.0},
                                   linalg::Vector{3.0});
}
#endif  // YUKTA_CHECKS

TEST(Contracts, ChecksEnabledMatchesBuildMode)
{
#ifdef YUKTA_CHECKS
    EXPECT_TRUE(contracts::checksEnabled());
#else
    EXPECT_FALSE(contracts::checksEnabled());
#endif
}

TEST(Contracts, MessagePartsNotEvaluatedOnSuccess)
{
    // Whether checks are on or off, a satisfied contract must never
    // evaluate its message parts (they may be expensive).
    int calls = 0;
    auto expensive = [&calls]() {
        ++calls;
        return "context";
    };
    YUKTA_REQUIRE(true, expensive());
    YUKTA_ENSURE(true, expensive());
    YUKTA_CHECK_FINITE(1.0, expensive());
    EXPECT_EQ(calls, 0);
    // The counter does count. This call also keeps the lambda used
    // when the contract macros expand to nothing (checks off).
    EXPECT_STREQ(expensive(), "context");
    EXPECT_EQ(calls, 1);
}

TEST(Contracts, DescribeConcatenatesParts)
{
    EXPECT_EQ(contracts::describe(), "");
    EXPECT_EQ(contracts::describe("Matrix(", 4, "x", 3, ")"),
              "Matrix(4x3)");
}

TEST(Contracts, ViolationIsInvalidArgument)
{
    // Existing tests expect std::invalid_argument on bad shapes; the
    // contracts build must not change the caught type.
    contracts::ContractViolation v("precondition", "r < rows_", "m.cpp", 7,
                                   "Matrix(4x3) index (5,1)");
    EXPECT_STREQ(v.kind(), "precondition");
    const std::string what = v.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("r < rows_"), std::string::npos);
    EXPECT_NE(what.find("Matrix(4x3) index (5,1)"), std::string::npos);
    EXPECT_NE(what.find("m.cpp:7"), std::string::npos);
    static_assert(std::is_base_of_v<std::invalid_argument,
                                    contracts::ContractViolation>);
}

#ifdef YUKTA_CHECKS

TEST(ContractsOn, RequireThrowsWithDiagnostic)
{
    try {
        YUKTA_REQUIRE(1 + 1 == 3, "arithmetic is broken: ", 1 + 1);
        FAIL() << "YUKTA_REQUIRE did not throw";
    } catch (const contracts::ContractViolation& e) {
        EXPECT_STREQ(e.kind(), "precondition");
        EXPECT_NE(std::string(e.what()).find("arithmetic is broken: 2"),
                  std::string::npos);
    }
}

TEST(ContractsOn, MatrixIndexNamesShape)
{
    linalg::Matrix m(4, 3);
    try {
        (void)m(5, 1);
        FAIL() << "out-of-range access did not throw";
    } catch (const contracts::ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("Matrix(4x3) index (5,1)"),
                  std::string::npos);
    }
    const linalg::Matrix& cm = m;
    EXPECT_THROW((void)cm(0, 3), contracts::ContractViolation);
}

TEST(ContractsOn, CMatrixIndexNamesShapeThroughBothOverloads)
{
    linalg::CMatrix m(4, 3);
    const linalg::CMatrix& cm = m;
    const auto expect_names = [](const auto& access, const char* shape) {
        try {
            (void)access();
            FAIL() << "out-of-range access did not throw: " << shape;
        } catch (const contracts::ContractViolation& e) {
            EXPECT_STREQ(e.kind(), "precondition");
            EXPECT_NE(std::string(e.what()).find(shape), std::string::npos)
                << e.what();
        }
    };
    expect_names([&m]() -> linalg::Complex& { return m(5, 1); },
                 "CMatrix(4x3) index (5,1)");
    expect_names([&cm]() { return cm(0, 3); }, "CMatrix(4x3) index (0,3)");
}

TEST(ContractsOn, SigmaMaxRejectsNonFiniteInput)
{
    // The values-only path keeps svd()'s finite-check; a wide input
    // takes the adjoint branch.
    linalg::CMatrix a(2, 3, linalg::Complex(1.0, 0.0));
    a(1, 2) = linalg::Complex(0.0, kNan);
    try {
        (void)linalg::sigmaMax(a);
        FAIL() << "sigmaMax accepted a NaN matrix";
    } catch (const contracts::ContractViolation& e) {
        EXPECT_STREQ(e.kind(), "finite-check");
    }
    EXPECT_THROW((void)linalg::sigmaMax(linalg::Matrix{{1.0}, {kNan}}),
                 contracts::ContractViolation);
}

TEST(ContractsOn, MatrixProductMismatchThrows)
{
    linalg::Matrix a(2, 3, 1.0);
    linalg::Matrix b(4, 2, 1.0);
    // API-level validation: fires in every build; the checks build
    // must keep throwing something catchable as std::invalid_argument.
    EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(ContractsOn, LuRejectsNonFiniteInput)
{
    linalg::Matrix a{{1.0, 0.0}, {0.0, kNan}};
    try {
        linalg::Lu lu(a);
        FAIL() << "Lu accepted a NaN matrix";
    } catch (const contracts::ContractViolation& e) {
        EXPECT_STREQ(e.kind(), "finite-check");
    }
}

TEST(ContractsOn, LuSolveRejectsMismatchedRhs)
{
    linalg::Matrix a{{2.0, 0.0}, {0.0, 2.0}};
    linalg::Lu lu(a);
    EXPECT_THROW(lu.solve(linalg::Vector{1.0, 2.0, 3.0}),
                 std::invalid_argument);
    EXPECT_THROW(lu.solve(linalg::Matrix(3, 1, 1.0)),
                 std::invalid_argument);
    EXPECT_THROW(lu.solve(linalg::Vector{1.0, kNan}),
                 contracts::ContractViolation);
}

TEST(ContractsOn, SsvRuntimeDetectsNanPoisoning)
{
    auto rt = makeRuntime();
    // A NaN deviation would silently corrupt x(T+1) = A x(T) + B dy(T)
    // forever; the finite-check turns it into an immediate failure.
    try {
        rt.invoke(linalg::Vector{kNan, 0.0}, linalg::Vector{3.0});
        FAIL() << "NaN deviation was accepted";
    } catch (const contracts::ContractViolation& e) {
        EXPECT_STREQ(e.kind(), "finite-check");
    }
    auto rt2 = makeRuntime();
    EXPECT_THROW(
        rt2.invoke(linalg::Vector{0.1, 0.1}, linalg::Vector{kNan}),
        contracts::ContractViolation);
}

TEST(ContractsOn, SsvRuntimeStillWorksOnCleanInputs)
{
    auto rt = makeRuntime();
    linalg::Vector u = rt.invoke(linalg::Vector{0.5, 0.2},
                                 linalg::Vector{3.0});
    ASSERT_EQ(u.size(), 2u);
    for (std::size_t i = 0; i < u.size(); ++i) {
        EXPECT_TRUE(std::isfinite(u[i]));
    }
}

#else  // !YUKTA_CHECKS

TEST(ContractsOff, MacrosAreFreeNoOps)
{
    // With checks compiled out neither the condition nor the message
    // parts may be evaluated.
    int calls = 0;
    YUKTA_REQUIRE(++calls != 0, "never evaluated");
    YUKTA_ENSURE(++calls != 0, "never evaluated");
    YUKTA_CHECK_FINITE((static_cast<void>(++calls), kNan));
    EXPECT_EQ(calls, 0);
}

TEST(ContractsOff, OutOfRangeIsUncheckedButApiThrowsRemain)
{
    // API-level shape validation stays active in release builds.
    linalg::Matrix a(2, 3, 1.0);
    linalg::Matrix b(4, 2, 1.0);
    EXPECT_THROW(a * b, std::invalid_argument);
}

#endif  // YUKTA_CHECKS

}  // namespace
}  // namespace yukta
