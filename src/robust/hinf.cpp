#include "robust/hinf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "control/discretize.h"
#include "control/interconnect.h"
#include "control/riccati.h"
#include "core/contracts.h"
#include "linalg/eig.h"
#include "linalg/lu.h"
#include "linalg/svd.h"
#include "obs/profile.h"

namespace yukta::robust {

using control::StateSpace;
using linalg::Matrix;

namespace {

/** Checks that the partition covers the plant exactly. */
void
validatePartition(const StateSpace& p, const PlantPartition& part)
{
    if (part.nw + part.nu != p.numInputs() ||
        part.nz + part.ny != p.numOutputs() || part.nu == 0 ||
        part.ny == 0 || part.nz == 0 || part.nw == 0) {
        throw std::invalid_argument("hinf: bad plant partition");
    }
}

/** Plant data after partitioning. */
struct Partitioned
{
    Matrix a, b1, b2, c1, c2, d11, d12, d21, d22;
};

Partitioned
split(const StateSpace& p, const PlantPartition& part)
{
    std::size_t n = p.numStates();
    Partitioned out;
    out.a = p.a;
    out.b1 = p.b.block(0, 0, n, part.nw);
    out.b2 = p.b.block(0, part.nw, n, part.nu);
    out.c1 = p.c.block(0, 0, part.nz, n);
    out.c2 = p.c.block(part.nz, 0, part.ny, n);
    out.d11 = p.d.block(0, 0, part.nz, part.nw);
    out.d12 = p.d.block(0, part.nw, part.nz, part.nu);
    out.d21 = p.d.block(part.nz, 0, part.ny, part.nw);
    out.d22 = p.d.block(part.nz, part.nw, part.ny, part.nu);
    return out;
}

}  // namespace

double
hinfNorm(const StateSpace& sys, std::size_t grid_points)
{
    if (grid_points < 2) {
        throw std::invalid_argument("hinfNorm: need >= 2 grid points");
    }
    double lo;
    double hi;
    if (sys.isDiscrete()) {
        lo = 1e-4 / sys.ts;
        hi = M_PI / sys.ts;  // Nyquist: the grid must not pass it.
    } else {
        lo = 1e-4;
        hi = 1e4;
    }
    const std::vector<double> grid =
        control::logSpacedFrequencies(lo, hi, grid_points);
    // One reduction of A serves the grid and every refinement round.
    control::FrequencyResponse response(sys);
    const std::vector<linalg::CMatrix> resp = response.evaluate(grid);
    std::vector<double> sig(grid_points);
    for (std::size_t i = 0; i < grid_points; ++i) {
        sig[i] = linalg::sigmaMax(resp[i]);
    }

    const double llo = std::log10(lo);
    const double lhi = std::log10(hi);
    const double step0 = (lhi - llo) / static_cast<double>(grid_points - 1);
    double peak = 0.0;
    for (double s : sig) {
        peak = std::max(peak, s);
    }

    // Refine around EVERY grid local maximum, not just the global
    // argmax: a narrow resonance can lose the coarse-grid vote to a
    // broad but lower plateau and still carry the true peak.
    struct Seed
    {
        double lw;
        double val;
    };
    std::vector<Seed> seeds;
    for (std::size_t i = 0; i < grid_points; ++i) {
        const bool up = i == 0 || sig[i] >= sig[i - 1];
        const bool down = i + 1 == grid_points || sig[i] >= sig[i + 1];
        if (up && down) {
            seeds.push_back({llo + step0 * static_cast<double>(i), sig[i]});
        }
    }
    for (const Seed& seed : seeds) {
        double peak_lw = seed.lw;
        double local = seed.val;
        double step = step0;
        // Convergent refinement (step shrinks 4x per round) clamped
        // to [llo, lhi] so no probe ever lands past Nyquist.
        for (int r = 0; r < 10 && step > 1e-8; ++r) {
            std::vector<double> lws;
            lws.reserve(9);
            for (int k = -4; k <= 4; ++k) {
                lws.push_back(std::clamp(peak_lw + step * k / 4.0,
                                         llo, lhi));
            }
            std::vector<double> ws;
            ws.reserve(lws.size());
            for (double lw : lws) {
                // Pin clamped boundary probes to the exact grid ends.
                double w = std::pow(10.0, lw);
                if (lw == llo) {
                    w = lo;
                }
                if (lw == lhi) {
                    w = hi;
                }
                ws.push_back(w);
            }
            const std::vector<linalg::CMatrix> rr = response.evaluate(ws);
            for (std::size_t k = 0; k < rr.size(); ++k) {
                const double s = linalg::sigmaMax(rr[k]);
                if (s > local) {
                    local = s;
                    peak_lw = lws[k];
                }
            }
            step /= 4.0;
        }
        peak = std::max(peak, local);
    }
    // DC (continuous) / z=1 (discrete) is part of the closure.
    peak = std::max(peak, linalg::sigmaMax(sys.dcGain()));
    return peak;
}

std::optional<StateSpace>
hinfSynthesizeAtGamma(const StateSpace& p, const PlantPartition& part,
                      double gamma)
{
    if (!p.isContinuous()) {
        throw std::invalid_argument(
            "hinfSynthesizeAtGamma: continuous plants only");
    }
    validatePartition(p, part);
    Partitioned g = split(p, part);
    std::size_t n = p.numStates();
    if (n == 0) {
        return std::nullopt;
    }

    // --- Port normalization so D12' D12 = I and D21 D21' = I. ---
    // D12 = U1 [S1; 0] V1': substitute u = V1 S1^{-1} u~ and rotate
    // z~ = U1' z (norm-preserving).
    linalg::Svd s12 = linalg::svd(g.d12);
    if (s12.s.empty() || s12.s.back() < 1e-9 * (1.0 + s12.s.front()) ||
        s12.s.size() < part.nu) {
        return std::nullopt;  // D12 not full column rank
    }
    linalg::Svd s21 = linalg::svd(g.d21);
    if (s21.s.empty() || s21.s.back() < 1e-9 * (1.0 + s21.s.front()) ||
        s21.s.size() < part.ny) {
        return std::nullopt;  // D21 not full row rank
    }

    std::vector<double> s1_inv(part.nu);
    for (std::size_t i = 0; i < part.nu; ++i) {
        s1_inv[i] = 1.0 / s12.s[i];
    }
    std::vector<double> s2_inv(part.ny);
    for (std::size_t i = 0; i < part.ny; ++i) {
        s2_inv[i] = 1.0 / s21.s[i];
    }
    // Input transform: u = ru * u~, ru = V1 S1^{-1} (nu x nu).
    Matrix ru = s12.v * Matrix::diag(s1_inv);
    // Output transform: y~ = ry * y, ry = S2^{-1} U2' (ny x ny).
    Matrix ry = Matrix::diag(s2_inv) * s21.u.transpose();

    Matrix b2 = g.b2 * ru;
    Matrix d12 = g.d12 * ru;          // orthonormal columns
    Matrix c2 = ry * g.c2;
    Matrix d21 = ry * g.d21;          // orthonormal rows
    const Matrix& b1 = g.b1;
    const Matrix& c1 = g.c1;

    if (g.d11.maxAbs() > 1e-9) {
        // The central-controller formulas below assume D11 = 0; Yukta
        // builds its generalized plants with strictly proper
        // performance weights so this never triggers in the design
        // flow.
        return std::nullopt;
    }

    double g2 = 1.0 / (gamma * gamma);

    // --- Control Riccati (cross terms folded in). ---
    Matrix d12t_c1 = d12.transpose() * c1;
    Matrix as = g.a - b2 * d12t_c1;
    Matrix c1p = c1 - d12 * d12t_c1;  // (I - D12 D12') C1
    Matrix qx = c1p.transpose() * c1p;
    Matrix gx = b2 * b2.transpose() - g2 * (b1 * b1.transpose());
    auto xres = control::care(as, gx, qx);
    if (!xres || !linalg::isPositiveSemidefinite(xres->x, 1e-6)) {
        return std::nullopt;
    }

    // --- Filter Riccati (dual). ---
    Matrix b1_d21t = b1 * d21.transpose();
    Matrix af = g.a - b1_d21t * c2;
    Matrix b1p = b1 - b1_d21t * d21;  // B1 (I - D21' D21)
    Matrix qy = b1p * b1p.transpose();
    Matrix gy = c2.transpose() * c2 - g2 * (c1.transpose() * c1);
    auto yres = control::care(af.transpose(), gy, qy);
    if (!yres || !linalg::isPositiveSemidefinite(yres->x, 1e-6)) {
        return std::nullopt;
    }

    const Matrix& x = xres->x;
    const Matrix& y = yres->x;

    // Coupling condition rho(XY) < gamma^2.
    if (linalg::spectralRadius(x * y) >= gamma * gamma * (1.0 - 1e-9)) {
        return std::nullopt;
    }

    // --- Central controller. ---
    Matrix f = -1.0 * (d12t_c1 + b2.transpose() * x);
    Matrix l = -1.0 * (b1_d21t + y * c2.transpose());
    Matrix iyx = Matrix::identity(n) - g2 * (y * x);
    linalg::Lu lu(iyx);
    if (!lu.invertible()) {
        return std::nullopt;
    }
    Matrix zl = lu.solve(l);  // Z L, Z = (I - g^-2 Y X)^{-1}

    Matrix c2h = c2 + g2 * (d21 * b1.transpose() * x);
    Matrix ak = g.a + g2 * (b1 * b1.transpose() * x) + b2 * f + zl * c2h;
    Matrix bk = -1.0 * zl;
    Matrix ck = f;
    Matrix dk(part.nu, part.ny);

    // Undo the port normalization: K = ru * K~ * ry.
    StateSpace k(ak, bk * ry, ru * ck, ru * dk * ry, 0.0);

    // Handle D22 != 0: K <- K (I + D22 K)^{-1}.
    if (g.d22.maxAbs() > 1e-12) {
        Matrix i_dk = Matrix::identity(part.ny) + g.d22 * k.d;
        linalg::Lu lu2(i_dk);
        if (!lu2.invertible()) {
            return std::nullopt;
        }
        Matrix m = lu2.inverse();
        Matrix ak2 = k.a - k.b * m * g.d22 * k.c;
        Matrix bk2 = k.b * m;
        Matrix ck2 = (Matrix::identity(part.nu) - k.d * m * g.d22) * k.c;
        Matrix dk2 = k.d * m;
        k = StateSpace(ak2, bk2, ck2, dk2, 0.0);
    }

    // --- A-posteriori validation: closed loop stable and below gamma.
    StateSpace cl = control::lftLower(p, k, part.nz, part.nw);
    if (!cl.isStable(1e-9)) {
        return std::nullopt;
    }
    double achieved = hinfNorm(cl, 64);
    if (achieved > gamma * (1.0 + 1e-4)) {
        return std::nullopt;
    }
    return k;
}

std::optional<HinfResult>
hinfSynthesize(const StateSpace& p, const PlantPartition& part,
               double gamma_lo, double gamma_hi, int bisection_steps)
{
    YUKTA_PROFILE_SCOPE("hinf_synthesize");
    validatePartition(p, part);
    YUKTA_CHECK_FINITE(p.a, "hinfSynthesize: non-finite plant A matrix");
    YUKTA_CHECK_FINITE(p.b, "hinfSynthesize: non-finite plant B matrix");
    YUKTA_CHECK_FINITE(p.c, "hinfSynthesize: non-finite plant C matrix");
    YUKTA_CHECK_FINITE(p.d, "hinfSynthesize: non-finite plant D matrix");
    YUKTA_REQUIRE(bisection_steps >= 1, "hinfSynthesize: bisection_steps = ",
                  bisection_steps);

    const bool discrete = p.isDiscrete();
    StateSpace pc = discrete ? control::d2c(p) : p;

    auto attempt = [&](double gamma) -> std::optional<StateSpace> {
        return hinfSynthesizeAtGamma(pc, part, gamma);
    };

    // Establish feasibility at gamma_hi (with a few enlargements).
    std::optional<StateSpace> best;
    double best_gamma = gamma_hi;
    for (int i = 0; i < 3 && !best; ++i) {
        best = attempt(best_gamma);
        if (!best) {
            best_gamma *= 10.0;
        }
    }
    if (!best) {
        return std::nullopt;
    }

    double lo = gamma_lo;
    double hi = best_gamma;
    for (int i = 0; i < bisection_steps; ++i) {
        double mid = std::sqrt(lo * hi);  // geometric bisection
        auto k = attempt(mid);
        if (k) {
            best = std::move(k);
            best_gamma = mid;
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi / lo < 1.02) {
            break;
        }
    }

    HinfResult out;
    out.k = discrete ? control::c2d(*best, p.ts) : *best;
    out.gamma = best_gamma;
    return out;
}

}  // namespace yukta::robust
