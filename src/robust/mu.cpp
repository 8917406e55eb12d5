#include "robust/mu.h"

#include <cmath>
#include <stdexcept>

#include "control/state_space.h"
#include "core/contracts.h"
#include "core/parallel_for.h"
#include "linalg/svd.h"
#include "robust/worst_case.h"

namespace yukta::robust {

using linalg::CMatrix;
using linalg::Matrix;

namespace {

/** sigma_max of the D-scaled matrix for the given per-block scales. */
double
scaledSigma(const CMatrix& m, const BlockStructure& s,
            const std::vector<double>& d)
{
    CMatrix scaled = m;
    // Rows (f channel) scaled by d_i, columns (d channel) by 1/d_j.
    for (std::size_t bi = 0; bi < s.numBlocks(); ++bi) {
        std::size_t r0 = s.inputOffset(bi);
        for (std::size_t r = r0; r < r0 + s.block(bi).in_dim; ++r) {
            for (std::size_t c = 0; c < scaled.cols(); ++c) {
                scaled(r, c) *= d[bi];
            }
        }
    }
    for (std::size_t bj = 0; bj < s.numBlocks(); ++bj) {
        std::size_t c0 = s.outputOffset(bj);
        for (std::size_t c = c0; c < c0 + s.block(bj).out_dim; ++c) {
            for (std::size_t r = 0; r < scaled.rows(); ++r) {
                scaled(r, c) /= d[bj];
            }
        }
    }
    return linalg::sigmaMax(scaled);
}

/** Golden-section minimization of f over [lo, hi]. */
template <typename F>
double
goldenMin(F f, double lo, double hi, int iters)
{
    const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
    double a = lo;
    double b = hi;
    double x1 = b - phi * (b - a);
    double x2 = a + phi * (b - a);
    double f1 = f(x1);
    double f2 = f(x2);
    for (int i = 0; i < iters; ++i) {
        if (f1 < f2) {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - phi * (b - a);
            f1 = f(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + phi * (b - a);
            f2 = f(x2);
        }
    }
    return f1 < f2 ? x1 : x2;
}

}  // namespace

MuBound
computeMu(const CMatrix& m, const BlockStructure& s)
{
    if (s.numBlocks() == 0) {
        throw std::invalid_argument("computeMu: empty block structure");
    }
    if (m.rows() != s.totalInputs() || m.cols() != s.totalOutputs()) {
        throw std::invalid_argument("computeMu: M shape does not match "
                                    "the block structure");
    }
    YUKTA_CHECK_FINITE(m, "computeMu: non-finite frequency response");

    MuBound out;
    out.d_scales.assign(s.numBlocks(), 1.0);

    // Lower bound: each block alone gives mu >= sigma_max(M_ii), and
    // the power iteration searches over joint structured directions.
    for (std::size_t i = 0; i < s.numBlocks(); ++i) {
        CMatrix mii = m.block(s.inputOffset(i), s.outputOffset(i),
                              s.block(i).in_dim, s.block(i).out_dim);
        out.lower = std::max(out.lower, linalg::sigmaMax(mii));
    }
    out.lower = std::max(out.lower, muLowerBound(m, s, 30).mu_lower);

    // Upper bound: cyclic coordinate descent over log10(d_i), last
    // block pinned to 1 (D-scaling is invariant to common scale).
    std::vector<double> d(s.numBlocks(), 1.0);
    if (s.numBlocks() > 1) {
        const int sweeps = 3;
        for (int sw = 0; sw < sweeps; ++sw) {
            for (std::size_t i = 0; i + 1 < s.numBlocks(); ++i) {
                double best_log = goldenMin(
                    [&](double lg) {
                        std::vector<double> dd = d;
                        dd[i] = std::pow(10.0, lg);
                        return scaledSigma(m, s, dd);
                    },
                    -4.0, 4.0, 40);
                d[i] = std::pow(10.0, best_log);
            }
        }
    }
    out.d_scales = d;
    out.upper = scaledSigma(m, s, d);
    // The unscaled sigma_max is always a valid upper bound too.
    out.upper = std::min(out.upper, linalg::sigmaMax(m));
    // Guard against numerical inversion of the ordering.
    out.upper = std::max(out.upper, out.lower);
    return out;
}

MuSweep
muFrequencySweep(const control::StateSpace& n, const BlockStructure& s,
                 std::size_t grid_points, std::size_t workers)
{
    if (n.numInputs() != s.totalOutputs() ||
        n.numOutputs() != s.totalInputs()) {
        throw std::invalid_argument("muFrequencySweep: system ports do not "
                                    "match the block structure");
    }
    if (grid_points < 2) {
        throw std::invalid_argument("muFrequencySweep: need >= 2 points");
    }

    MuSweep out;
    double lo;
    double hi;
    if (n.isDiscrete()) {
        lo = 1e-4 / n.ts;             // near DC, strictly inside (0, pi/Ts]
        hi = M_PI / n.ts;             // Nyquist, hit exactly
    } else {
        lo = 1e-3;
        hi = 1e3;
    }
    out.freqs = control::logSpacedFrequencies(lo, hi, grid_points);
    const std::vector<CMatrix> resp = n.freqResponseBatch(out.freqs);
    // Each point is a pure function of its own response, so the
    // bounds are the same bits however many threads compute them.
    out.mu.resize(grid_points);
    core::parallelFor(grid_points, workers, [&](std::size_t i) {
        out.mu[i] = computeMu(resp[i], s);
    });
    for (std::size_t i = 0; i < grid_points; ++i) {
        if (out.mu[i].upper > out.peak) {
            out.peak = out.mu[i].upper;
            out.peak_freq = out.freqs[i];
        }
    }
    return out;
}

std::pair<Matrix, Matrix>
buildDScalings(const BlockStructure& s, const std::vector<double>& d_scales)
{
    if (d_scales.size() != s.numBlocks()) {
        throw std::invalid_argument("buildDScalings: scale count mismatch");
    }
    std::vector<double> left(s.totalInputs());
    std::vector<double> right_inv(s.totalOutputs());
    for (std::size_t i = 0; i < s.numBlocks(); ++i) {
        if (d_scales[i] <= 0.0) {
            throw std::invalid_argument("buildDScalings: non-positive scale");
        }
        std::size_t r0 = s.inputOffset(i);
        for (std::size_t r = 0; r < s.block(i).in_dim; ++r) {
            left[r0 + r] = d_scales[i];
        }
        std::size_t c0 = s.outputOffset(i);
        for (std::size_t c = 0; c < s.block(i).out_dim; ++c) {
            right_inv[c0 + c] = 1.0 / d_scales[i];
        }
    }
    return {Matrix::diag(left), Matrix::diag(right_inv)};
}

}  // namespace yukta::robust
