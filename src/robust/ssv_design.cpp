#include "robust/ssv_design.h"

#include <cmath>
#include <stdexcept>

#include "control/balance.h"
#include "control/discretize.h"
#include "control/interconnect.h"
#include "robust/weights.h"

namespace yukta::robust {

using control::StateSpace;
using linalg::Matrix;

namespace {

void
validateSpec(const SsvSpec& spec)
{
    std::size_t i = spec.num_inputs;
    std::size_t e = spec.num_external;
    std::size_t o = spec.model.numOutputs();
    if (!spec.model.isDiscrete()) {
        throw std::invalid_argument("ssv: model must be discrete");
    }
    if (spec.model.numInputs() != i + e || i == 0 || o == 0) {
        throw std::invalid_argument("ssv: model ports do not match "
                                    "num_inputs + num_external");
    }
    if (spec.in_min.size() != i || spec.in_max.size() != i ||
        spec.in_step.size() != i || spec.in_weight.size() != i) {
        throw std::invalid_argument("ssv: input spec size mismatch");
    }
    if (spec.out_bound.size() != o || spec.out_range.size() != o) {
        throw std::invalid_argument("ssv: output spec size mismatch");
    }
    if (!spec.out_boost.empty() && spec.out_boost.size() != o) {
        throw std::invalid_argument("ssv: out_boost size mismatch");
    }
    for (std::size_t k = 0; k < i; ++k) {
        if (spec.in_max[k] <= spec.in_min[k] || spec.in_step[k] < 0.0 ||
            spec.in_weight[k] <= 0.0) {
            throw std::invalid_argument("ssv: bad input range/step/weight");
        }
    }
    for (std::size_t k = 0; k < o; ++k) {
        if (spec.out_bound[k] <= 0.0 || spec.out_range[k] <= 0.0) {
            throw std::invalid_argument("ssv: bad output bound/range");
        }
    }
    if (spec.guardband <= 0.0) {
        throw std::invalid_argument("ssv: guardband must be positive");
    }
}

/** Splits a weight system into (A, B, C, D) with possible D != 0. */
struct WeightData
{
    Matrix a, b, c, d;
};

WeightData
weightData(const StateSpace& w)
{
    return {w.a, w.b, w.c, w.d};
}

}  // namespace

PlantPartition
ssvPartition(const SsvSpec& spec)
{
    std::size_t i = spec.num_inputs;
    std::size_t e = spec.num_external;
    std::size_t o = spec.model.numOutputs();
    PlantPartition part;
    part.nw = o + i + o + e;   // d, dq, r, e
    part.nu = i;
    part.nz = o + i + o + i;   // f, fq, z1, z2
    part.ny = o + e;           // y1 = r - y, y2 = e
    return part;
}

BlockStructure
ssvBlockStructure(const SsvSpec& spec)
{
    std::size_t i = spec.num_inputs;
    std::size_t e = spec.num_external;
    std::size_t o = spec.model.numOutputs();
    BlockStructure s;
    s.add("model", o, o);           // d = Delta_u f
    s.add("quant", i, i);           // dq = Delta_in fq
    s.add("perf", o + e, o + i);    // performance block
    return s;
}

StateSpace
buildGeneralizedPlant(const SsvSpec& spec, bool continuous)
{
    validateSpec(spec);
    std::size_t ni = spec.num_inputs;
    std::size_t ne = spec.num_external;
    std::size_t no = spec.model.numOutputs();
    double ts = spec.model.ts;

    // Plant model in the requested timebase.
    StateSpace g = continuous ? control::d2c(spec.model) : spec.model;
    std::size_t n = g.numStates();

    // Input ranges and injection scales.
    std::vector<double> in_range(ni);
    std::vector<double> qstep(ni);
    std::vector<double> wu_gain(ni);
    for (std::size_t k = 0; k < ni; ++k) {
        in_range[k] = spec.in_max[k] - spec.in_min[k];
        // A zero step (continuous input) still gets a tiny channel so
        // the block structure stays non-degenerate.
        qstep[k] = spec.in_step[k] > 0.0 ? spec.in_step[k]
                                         : 1e-4 * in_range[k];
        wu_gain[k] = spec.in_weight[k] / in_range[k];
    }

    // Weight systems (continuous prototypes, discretized on demand).
    std::vector<double> wp_dc(no);
    std::vector<double> wf_dc(no);
    std::vector<double> wq_dc(ni);
    for (std::size_t k = 0; k < no; ++k) {
        double boost = spec.out_boost.empty() ? spec.perf_dc_boost
                                              : spec.out_boost[k];
        wp_dc[k] = boost / spec.out_bound[k];
        wf_dc[k] = spec.guardband / spec.out_range[k];
    }
    for (std::size_t k = 0; k < ni; ++k) {
        wq_dc[k] = 1.0 / in_range[k];
    }
    StateSpace wp = makeDiagonalWeight(wp_dc, spec.perf_corner);
    StateSpace wf = makeDiagonalWeight(wf_dc, spec.unc_corner);
    StateSpace wq = makeDiagonalWeight(wq_dc, spec.unc_corner);
    if (!continuous) {
        wp = control::c2d(wp, ts);
        wf = control::c2d(wf, ts);
        wq = control::c2d(wq, ts);
    }
    WeightData p = weightData(wp);
    WeightData fw = weightData(wf);
    WeightData qw = weightData(wq);

    // Model blocks split by [u; e] columns.
    Matrix bg_u = g.b.block(0, 0, n, ni);
    Matrix bg_e = g.b.block(0, ni, n, ne);
    Matrix dg_u = g.d.block(0, 0, no, ni);
    Matrix dg_e = g.d.block(0, ni, no, ne);

    Matrix s_d = Matrix::diag(std::vector<double>(spec.out_range));
    Matrix s_dq = Matrix::diag(qstep);
    Matrix w_u = Matrix::diag(wu_gain);

    // State layout [xg (n); xp (no); xf (no); xq (ni)].
    std::size_t nn = n + no + no + ni;
    std::size_t off_p = n;
    std::size_t off_f = n + no;
    std::size_t off_q = n + 2 * no;

    // Input layout [d (no); dq (ni); r (no); e (ne); u (ni)].
    std::size_t in_d = 0;
    std::size_t in_dq = no;
    std::size_t in_r = no + ni;
    std::size_t in_e = 2 * no + ni;
    std::size_t in_u = 2 * no + ni + ne;
    std::size_t nin = 2 * no + 2 * ni + ne;

    // Output layout [f (no); fq (ni); z1 (no); z2 (ni); y1 (no);
    // y2 (ne)].
    std::size_t out_f = 0;
    std::size_t out_fq = no;
    std::size_t out_z1 = no + ni;
    std::size_t out_z2 = 2 * no + ni;
    std::size_t out_y1 = 2 * no + 2 * ni;
    std::size_t out_y2 = 3 * no + 2 * ni;
    std::size_t nout = 3 * no + 2 * ni + ne;

    Matrix a(nn, nn);
    Matrix b(nn, nin);
    Matrix c(nout, nn);
    Matrix d(nout, nin);

    Matrix eye_o = Matrix::identity(no);
    Matrix eye_e = Matrix::identity(ne);

    // --- Model states xg.
    a.setBlock(0, 0, g.a);
    b.setBlock(0, in_dq, bg_u * s_dq);
    b.setBlock(0, in_e, bg_e);
    b.setBlock(0, in_u, bg_u);

    // err = r - y_pert = r - Cg xg - Dg_u(u + s_dq dq) - Dg_e e - s_d d.
    // --- Performance weight states xp: xp' = Ap xp + Bp err.
    a.setBlock(off_p, 0, -1.0 * (p.b * g.c));
    a.setBlock(off_p, off_p, p.a);
    b.setBlock(off_p, in_d, -1.0 * (p.b * s_d));
    b.setBlock(off_p, in_dq, -1.0 * (p.b * dg_u * s_dq));
    b.setBlock(off_p, in_r, p.b);
    b.setBlock(off_p, in_e, -1.0 * (p.b * dg_e));
    b.setBlock(off_p, in_u, -1.0 * (p.b * dg_u));

    // --- Uncertainty filter states xf: xf' = Af xf + Bf y_nom.
    a.setBlock(off_f, 0, fw.b * g.c);
    a.setBlock(off_f, off_f, fw.a);
    b.setBlock(off_f, in_dq, fw.b * dg_u * s_dq);
    b.setBlock(off_f, in_e, fw.b * dg_e);
    b.setBlock(off_f, in_u, fw.b * dg_u);

    // --- Quantization filter states xq: xq' = Aq xq + Bq u.
    a.setBlock(off_q, off_q, qw.a);
    b.setBlock(off_q, in_u, qw.b);

    // --- Output f = Cf xf + Df y_nom.
    c.setBlock(out_f, 0, fw.d * g.c);
    c.setBlock(out_f, off_f, fw.c);
    d.setBlock(out_f, in_dq, fw.d * dg_u * s_dq);
    d.setBlock(out_f, in_e, fw.d * dg_e);
    d.setBlock(out_f, in_u, fw.d * dg_u);

    // --- Output fq = Cq xq + Dq u.
    c.setBlock(out_fq, off_q, qw.c);
    d.setBlock(out_fq, in_u, qw.d);

    // --- Output z1 = Cp xp + Dp err.
    c.setBlock(out_z1, 0, -1.0 * (p.d * g.c));
    c.setBlock(out_z1, off_p, p.c);
    d.setBlock(out_z1, in_d, -1.0 * (p.d * s_d));
    d.setBlock(out_z1, in_dq, -1.0 * (p.d * dg_u * s_dq));
    d.setBlock(out_z1, in_r, p.d);
    d.setBlock(out_z1, in_e, -1.0 * (p.d * dg_e));
    d.setBlock(out_z1, in_u, -1.0 * (p.d * dg_u));

    // --- Output z2 = W_u u.
    d.setBlock(out_z2, in_u, w_u);

    // --- Measurement y1 = err.
    c.setBlock(out_y1, 0, -1.0 * g.c);
    d.setBlock(out_y1, in_d, -1.0 * s_d);
    d.setBlock(out_y1, in_dq, -1.0 * (dg_u * s_dq));
    d.setBlock(out_y1, in_r, eye_o);
    d.setBlock(out_y1, in_e, -1.0 * dg_e);
    d.setBlock(out_y1, in_u, -1.0 * dg_u);

    // --- Measurement y2 = e.
    d.setBlock(out_y2, in_e, eye_e);

    return StateSpace(a, b, c, d, continuous ? 0.0 : ts);
}

std::optional<SsvController>
ssvSynthesize(const SsvSpec& spec, std::size_t workers)
{
    validateSpec(spec);
    PlantPartition part = ssvPartition(spec);
    BlockStructure structure = ssvBlockStructure(spec);

    // K-step plant: continuous, so the DGKF assumptions (D11 = 0)
    // hold by construction.
    StateSpace pc = buildGeneralizedPlant(spec, true);
    auto dk = dkSynthesize(pc, part, structure, spec.dk, workers);
    if (!dk) {
        return std::nullopt;
    }

    // Back to the controller's 500 ms world.
    double ts = spec.model.ts;
    StateSpace kd = control::c2d(dk->k, ts);

    // Validation plant (discrete). Certification is against the
    // designer's declared bounds, not the boosted design weights.
    SsvSpec cert_spec = spec;
    cert_spec.perf_dc_boost = 1.0;
    cert_spec.out_boost.clear();
    StateSpace pd = buildGeneralizedPlant(cert_spec, false);

    auto certify = [&](const StateSpace& k)
        -> std::optional<std::pair<StateSpace, MuSweep>> {
        StateSpace n = control::lftLower(pd, k, part.nz, part.nw);
        if (!n.isStable(1e-9)) {
            return std::nullopt;
        }
        return std::make_pair(
            n, muFrequencySweep(n, structure, spec.dk.mu_grid, workers));
    };

    // Reduce to the runtime order (paper: N = 20) when possible.
    StateSpace k_final = kd;
    std::optional<std::pair<StateSpace, MuSweep>> cert;
    if (kd.numStates() > spec.max_order && kd.isStable()) {
        try {
            auto red = control::balancedTruncate(kd, spec.max_order);
            auto c = certify(red.sys);
            if (c) {
                k_final = red.sys;
                cert = std::move(c);
            }
        } catch (const std::runtime_error&) {
            // fall through to the unreduced controller
        }
    }
    if (!cert) {
        cert = certify(kd);
        k_final = kd;
    }
    if (!cert) {
        return std::nullopt;
    }

    SsvController out;
    out.k = k_final;
    out.sweep = std::move(cert->second);
    out.mu_peak = out.sweep.peak;
    out.min_s = out.mu_peak > 0.0 ? 1.0 / out.mu_peak : 1e300;
    out.gamma = dk->gamma;
    out.structure = structure;
    out.dk_iterations = dk->iterations;
    out.design_bounds = spec.out_bound;
    out.guaranteed_bounds.resize(spec.out_bound.size());
    double inflate = std::max(1.0, out.mu_peak);
    for (std::size_t i = 0; i < spec.out_bound.size(); ++i) {
        out.guaranteed_bounds[i] = inflate * spec.out_bound[i];
    }
    return out;
}

}  // namespace yukta::robust
