#include "robust/dk.h"

#include <cmath>
#include <stdexcept>

#include "control/interconnect.h"
#include "core/contracts.h"
#include "linalg/matrix.h"
#include "obs/profile.h"
#include "robust/mu.h"

namespace yukta::robust {

using control::StateSpace;
using linalg::Matrix;

namespace {

/**
 * Applies constant D scalings to the perturbation channels of the
 * generalized plant: rows f_i scaled by d_i, columns d_i by 1/d_i;
 * performance and measurement ports untouched.
 */
StateSpace
scalePlant(const StateSpace& p, const PlantPartition& part,
           const BlockStructure& s, const std::vector<double>& d)
{
    auto [d_left, d_right_inv] = buildDScalings(s, d);
    // Extend to the full port set: the structure covers the first
    // part.nz outputs and part.nw inputs exactly (perf block included
    // with scale pinned at 1), leaving y rows and u columns.
    std::size_t ny = p.numOutputs() - part.nz;
    std::size_t nu = p.numInputs() - part.nw;
    Matrix out_scale = blkdiag(d_left, Matrix::identity(ny));
    Matrix in_scale = blkdiag(d_right_inv, Matrix::identity(nu));
    return p.scaled(out_scale, in_scale);
}

}  // namespace

std::optional<DkResult>
dkSynthesize(const StateSpace& p, const PlantPartition& part,
             const BlockStructure& structure, const DkOptions& options,
             std::size_t workers)
{
    YUKTA_PROFILE_SCOPE("dk_synthesize");
    if (structure.totalOutputs() != part.nw ||
        structure.totalInputs() != part.nz) {
        throw std::invalid_argument("dkSynthesize: structure does not "
                                    "cover the perturbation+performance "
                                    "ports");
    }
    if (structure.numBlocks() < 1) {
        throw std::invalid_argument("dkSynthesize: need at least the "
                                    "performance block");
    }
    YUKTA_REQUIRE(options.max_iterations >= 1,
                  "dkSynthesize: max_iterations = ", options.max_iterations);
    YUKTA_REQUIRE(options.gamma_lo > 0.0 &&
                      options.gamma_lo < options.gamma_hi,
                  "dkSynthesize: bad gamma bisection range [",
                  options.gamma_lo, ", ", options.gamma_hi, "]");
    YUKTA_REQUIRE(options.mu_grid >= 2, "dkSynthesize: mu_grid = ",
                  options.mu_grid);

    std::vector<double> d(structure.numBlocks(), 1.0);
    std::optional<DkResult> best;
    double best_peak = 0.0;

    for (int iter = 0; iter < options.max_iterations; ++iter) {
        StateSpace scaled = scalePlant(p, part, structure, d);
        auto kres =
            hinfSynthesize(scaled, part, options.gamma_lo, options.gamma_hi,
                           options.bisection_steps);
        if (!kres) {
            break;
        }

        // mu analysis on the *unscaled* closed loop.
        StateSpace n = control::lftLower(p, kres->k, part.nz, part.nw);
        if (!n.isStable(1e-9)) {
            break;
        }
        // A lone round has no best to beat and no next D to fit, so
        // nothing would read its sweep: it is the result as it stands.
        if (!best && iter + 1 == options.max_iterations) {
            best = DkResult{kres->k, kres->gamma, iter + 1};
            break;
        }
        MuSweep sweep =
            muFrequencySweep(n, structure, options.mu_grid, workers);

        if (!best || sweep.peak < best_peak) {
            best = DkResult{kres->k, kres->gamma, iter + 1};
            best_peak = sweep.peak;
        }

        // Constant-D fit: adopt the optimal scalings at the peak
        // frequency for the next K-step.
        std::size_t peak_idx = 0;
        for (std::size_t i = 0; i < sweep.mu.size(); ++i) {
            if (sweep.mu[i].upper >= sweep.mu[peak_idx].upper) {
                peak_idx = i;
            }
        }
        std::vector<double> d_next = sweep.mu[peak_idx].d_scales;
        bool changed = false;
        for (std::size_t i = 0; i < d.size(); ++i) {
            // A degenerate D fit would silently detune every later
            // K-step; the scaled plant stays well-posed only for
            // strictly positive, finite scales.
            YUKTA_REQUIRE(std::isfinite(d_next[i]) && d_next[i] > 0.0,
                          "dkSynthesize: degenerate D scale d[", i,
                          "] = ", d_next[i], " at iteration ", iter);
            if (std::abs(std::log(d_next[i] / d[i])) > 0.05) {
                changed = true;
            }
        }
        d = std::move(d_next);
        if (!changed && iter > 0) {
            break;  // converged
        }
    }
    return best;
}

}  // namespace yukta::robust
