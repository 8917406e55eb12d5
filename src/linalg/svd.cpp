#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/contracts.h"

namespace yukta::linalg {

namespace {

/**
 * One-sided Jacobi sweeps on @p w (rows >= cols): columns are rotated
 * until pairwise orthogonal. When @p v_acc is non-null every rotation
 * is also applied to it. The rotations are computed from @p w alone,
 * so the sequence applied to @p w does not depend on whether V is
 * accumulated.
 */
void
jacobiSweep(CMatrix& w, CMatrix* v_acc)
{
    std::size_t m = w.rows();
    std::size_t n = w.cols();

    const int max_sweeps = 60;
    const double tol = 1e-14;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        double max_cos = 0.0;
        for (std::size_t p = 0; p + 1 < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                // Column inner products.
                double app = 0.0;
                double aqq = 0.0;
                Complex apq(0.0, 0.0);
                for (std::size_t i = 0; i < m; ++i) {
                    app += std::norm(w(i, p));
                    aqq += std::norm(w(i, q));
                    apq += std::conj(w(i, p)) * w(i, q);
                }
                double mag = std::abs(apq);
                double denom = std::sqrt(app * aqq);
                if (denom < 1e-300 || mag <= tol * denom) {
                    continue;
                }
                max_cos = std::max(max_cos, mag / denom);

                Complex phase = apq / mag;
                double tau = (aqq - app) / (2.0 * mag);
                double t = (tau >= 0.0 ? 1.0 : -1.0) /
                           (std::abs(tau) + std::sqrt(1.0 + tau * tau));
                double c = 1.0 / std::sqrt(1.0 + t * t);
                double s = t * c;

                // w_p' = c w_p - s conj(phase) w_q
                // w_q' = s phase  w_p + c w_q
                Complex sp = s * std::conj(phase);
                Complex sq = s * phase;
                for (std::size_t i = 0; i < m; ++i) {
                    Complex wp = w(i, p);
                    Complex wq = w(i, q);
                    w(i, p) = c * wp - sp * wq;
                    w(i, q) = sq * wp + c * wq;
                }
                if (v_acc == nullptr) {
                    continue;
                }
                CMatrix& v = *v_acc;
                for (std::size_t i = 0; i < n; ++i) {
                    Complex vp = v(i, p);
                    Complex vq = v(i, q);
                    v(i, p) = c * vp - sp * vq;
                    v(i, q) = sq * vp + c * vq;
                }
            }
        }
        if (max_cos <= tol) {
            break;
        }
    }
}

/** @return the Euclidean norm of each column of @p w. */
std::vector<double>
columnNorms(const CMatrix& w)
{
    std::vector<double> norms(w.cols());
    for (std::size_t j = 0; j < w.cols(); ++j) {
        double nn = 0.0;
        for (std::size_t i = 0; i < w.rows(); ++i) {
            nn += std::norm(w(i, j));
        }
        norms[j] = std::sqrt(nn);
    }
    return norms;
}

/**
 * Thin SVD of a matrix with rows >= cols: the Jacobi sweep with V
 * accumulated, then singular values = column norms and U = the
 * normalized columns, sorted by descending norm.
 */
CSvd
jacobiSvdTall(const CMatrix& a)
{
    std::size_t m = a.rows();
    std::size_t n = a.cols();
    CMatrix w = a;
    CMatrix v = CMatrix::identity(n);
    jacobiSweep(w, &v);

    CSvd out;
    out.s.resize(n);
    out.u = CMatrix(m, n);
    out.v = CMatrix(n, n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<double> norms = columnNorms(w);
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
        return norms[i] > norms[j];
    });
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t j = order[k];
        out.s[k] = norms[j];
        double inv = norms[j] > 1e-300 ? 1.0 / norms[j] : 0.0;
        for (std::size_t i = 0; i < m; ++i) {
            out.u(i, k) = w(i, j) * inv;
        }
        for (std::size_t i = 0; i < n; ++i) {
            out.v(i, k) = v(i, j);
        }
    }
    return out;
}

}  // namespace

CSvd
svd(const CMatrix& a)
{
    if (a.empty()) {
        return {};
    }
    YUKTA_CHECK_FINITE(a, "svd: non-finite ", a.rows(), "x", a.cols(),
                       " input");
    if (a.rows() >= a.cols()) {
        return jacobiSvdTall(a);
    }
    // A = U S V^H  <=>  A^H = V S U^H.
    CSvd t = jacobiSvdTall(a.adjoint());
    CSvd out;
    out.u = t.v;
    out.s = t.s;
    out.v = t.u;
    return out;
}

Svd
svd(const Matrix& a)
{
    CSvd c = svd(CMatrix(a));
    Svd out;
    out.u = c.u.realPart();
    out.s = c.s;
    out.v = c.v.realPart();
    return out;
}

double
sigmaMax(const CMatrix& a)
{
    if (a.empty()) {
        return 0.0;
    }
    YUKTA_CHECK_FINITE(a, "sigmaMax: non-finite ", a.rows(), "x", a.cols(),
                       " input");
    // svd()'s sweep without accumulating V: sigma_max is the largest
    // column norm of the rotated matrix, the value svd() sorts first.
    CMatrix w = a.rows() >= a.cols() ? a : a.adjoint();
    jacobiSweep(w, nullptr);
    std::vector<double> norms = columnNorms(w);
    return *std::max_element(norms.begin(), norms.end());
}

double
sigmaMax(const Matrix& a)
{
    return sigmaMax(CMatrix(a));
}

double
sigmaMin(const Matrix& a)
{
    if (a.empty()) {
        return 0.0;
    }
    Svd d = svd(a);
    return d.s.empty() ? 0.0 : d.s.back();
}

Matrix
pinv(const Matrix& a, double rtol)
{
    if (a.empty()) {
        return Matrix(a.cols(), a.rows());
    }
    Svd d = svd(a);
    double cutoff = rtol * (d.s.empty() ? 0.0 : d.s.front());
    Matrix out(a.cols(), a.rows());
    for (std::size_t k = 0; k < d.s.size(); ++k) {
        if (d.s[k] <= cutoff || d.s[k] == 0.0) {  // yukta-lint: allow(float-eq)
            continue;
        }
        double inv = 1.0 / d.s[k];
        for (std::size_t i = 0; i < a.cols(); ++i) {
            for (std::size_t j = 0; j < a.rows(); ++j) {
                out(i, j) += d.v(i, k) * inv * d.u(j, k);
            }
        }
    }
    return out;
}

}  // namespace yukta::linalg
