// The parallel mu sweep: parallelFor's fork-join contract (every index
// once, every thread joined before the lowest-index exception is
// rethrown), and muFrequencySweep producing the same bits at every
// worker count as a serial computeMu loop.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "control/interconnect.h"
#include "core/parallel_for.h"
#include "robust/dk.h"
#include "robust/mu.h"
#include "robust/ssv_design.h"

namespace yukta::robust {
namespace {

using control::StateSpace;
using core::parallelFor;
using linalg::CMatrix;
using linalg::Matrix;

TEST(ParallelFor, RunsEachIndexExactlyOnce)
{
    for (std::size_t workers : {0u, 1u, 2u, 4u, 16u}) {
        for (std::size_t count : {0u, 1u, 5u, 64u}) {
            std::vector<std::atomic<int>> calls(count);
            parallelFor(count, workers,
                        [&](std::size_t i) { calls[i].fetch_add(1); });
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(calls[i].load(), 1)
                    << "index " << i << ", " << workers << " workers";
            }
        }
    }
}

TEST(ParallelFor, RethrowsTheLowestIndexAfterEveryThreadJoins)
{
    constexpr std::size_t kCount = 12;
    for (std::size_t workers : {1u, 4u}) {
        std::atomic<std::size_t> finished{0};
        try {
            parallelFor(kCount, workers, [&](std::size_t i) {
                if (i == 9) {
                    // Thrown first in time on a parallel run.
                    throw std::runtime_error("9");
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                if (i == 2) {
                    throw std::runtime_error("2");
                }
                finished.fetch_add(1);
            });
            ADD_FAILURE() << "parallelFor swallowed the exceptions";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "2") << workers << " workers";
            // Every other body ran to completion before the rethrow.
            EXPECT_EQ(finished.load(), kCount - 2) << workers << " workers";
        }
    }
}

/** The spec of dk_pin_test.cpp (single D-K iteration, 12-point grid). */
SsvSpec
pinnedSpec()
{
    Matrix a{{0.6, 0.1}, {0.05, 0.7}};
    Matrix b{{0.5, 0.1, 0.1}, {0.1, 0.4, 0.05}};
    Matrix c{{1.0, 0.2}, {0.1, 1.0}};
    SsvSpec spec;
    spec.model = StateSpace(a, b, c, Matrix(2, 3), 0.5);
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
    spec.dk.max_iterations = 1;
    spec.dk.mu_grid = 12;
    spec.dk.bisection_steps = 8;
    return spec;
}

TEST(MuSweep, ParallelSweepIsBitIdenticalToSerialComputeMu)
{
    const SsvSpec spec = pinnedSpec();
    const PlantPartition part = ssvPartition(spec);
    const BlockStructure s = ssvBlockStructure(spec);
    const StateSpace pc = buildGeneralizedPlant(spec, true);
    auto dk = dkSynthesize(pc, part, s, spec.dk);
    ASSERT_TRUE(dk.has_value());
    // The D-K closed loop is continuous: its sweep spans [1e-3, 1e3].
    const StateSpace n = control::lftLower(pc, dk->k, part.nz, part.nw);
    const std::vector<double> freqs =
        control::logSpacedFrequencies(1e-3, 1e3, spec.dk.mu_grid);

    // The serial oracle: one computeMu per point, peak in index order.
    const std::vector<CMatrix> resp = n.freqResponseBatch(freqs);
    std::vector<MuBound> want;
    double peak = 0.0;
    double peak_freq = 0.0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        want.push_back(computeMu(resp[i], s));
        if (want[i].upper > peak) {
            peak = want[i].upper;
            peak_freq = freqs[i];
        }
    }

    for (std::size_t workers : {1u, 2u, 4u, 16u}) {
        const MuSweep got =
            muFrequencySweep(n, s, spec.dk.mu_grid, workers);
        ASSERT_EQ(got.freqs, freqs) << workers << " workers";
        ASSERT_EQ(got.mu.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.mu[i].upper, want[i].upper) << "point " << i;
            EXPECT_EQ(got.mu[i].lower, want[i].lower) << "point " << i;
            EXPECT_EQ(got.mu[i].d_scales, want[i].d_scales)
                << "point " << i;
        }
        EXPECT_EQ(got.peak, peak) << workers << " workers";
        EXPECT_EQ(got.peak_freq, peak_freq) << workers << " workers";
    }
}

}  // namespace
}  // namespace yukta::robust
