#include "control/state_space.h"

#include <cmath>
#include <stdexcept>

#include "linalg/cmatrix.h"
#include "linalg/eig.h"
#include "linalg/hessenberg.h"
#include "linalg/lu.h"

namespace yukta::control {

using linalg::CMatrix;
using linalg::Complex;
using linalg::Matrix;
using linalg::Vector;

StateSpace::StateSpace(Matrix a_in, Matrix b_in, Matrix c_in, Matrix d_in,
                       double ts_in)
    : a(std::move(a_in)), b(std::move(b_in)), c(std::move(c_in)),
      d(std::move(d_in)), ts(ts_in)
{
    if (!a.isSquare()) {
        throw std::invalid_argument("StateSpace: A must be square");
    }
    if (b.rows() != a.rows()) {
        throw std::invalid_argument("StateSpace: B row count != states");
    }
    if (c.cols() != a.rows()) {
        throw std::invalid_argument("StateSpace: C col count != states");
    }
    if (d.rows() != c.rows() || d.cols() != b.cols()) {
        throw std::invalid_argument("StateSpace: D shape mismatch");
    }
    if (ts < 0.0) {
        throw std::invalid_argument("StateSpace: negative sample time");
    }
}

StateSpace
StateSpace::gain(const Matrix& g, double ts)
{
    return StateSpace(Matrix(0, 0), Matrix(0, g.cols()),
                      Matrix(g.rows(), 0), g, ts);
}

std::vector<Complex>
StateSpace::poles() const
{
    return linalg::eigenvalues(a);
}

bool
StateSpace::isStable(double margin) const
{
    if (numStates() == 0) {
        return true;
    }
    if (isDiscrete()) {
        return linalg::spectralRadius(a) < 1.0 - margin;
    }
    return linalg::spectralAbscissa(a) < -margin;
}

CMatrix
StateSpace::evalAt(Complex s) const
{
    std::size_t n = numStates();
    if (n == 0) {
        return CMatrix(d);
    }
    // (sI - A)
    CMatrix si_a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            si_a(i, j) = Complex(-a(i, j), 0.0);
        }
        si_a(i, i) += s;
    }
    CMatrix x = csolve(si_a, CMatrix(b));
    return CMatrix(c) * x + CMatrix(d);
}

CMatrix
StateSpace::freqResponse(double w) const
{
    if (isDiscrete()) {
        return evalAt(std::exp(Complex(0.0, w * ts)));
    }
    return evalAt(Complex(0.0, w));
}

std::vector<CMatrix>
StateSpace::freqResponseBatch(const std::vector<double>& freqs) const
{
    return FrequencyResponse(*this).evaluate(freqs);
}

FrequencyResponse::FrequencyResponse(const StateSpace& sys)
    : ts_(sys.ts), d_(sys.d)
{
    if (sys.numStates() == 0) {
        return;
    }
    // A = Q H Q^T, then fold Q into the input and output maps so every
    // frequency only touches H.
    const linalg::HessenbergForm hess = linalg::hessenbergReduce(sys.a);
    bt_ = CMatrix(hess.q.transpose() * sys.b);
    ct_ = CMatrix(sys.c * hess.q);
    solver_.emplace(hess.h, sys.numInputs());
}

std::vector<CMatrix>
FrequencyResponse::evaluate(const std::vector<double>& freqs)
{
    std::vector<CMatrix> out;
    out.reserve(freqs.size());
    if (!solver_) {
        out.assign(freqs.size(), d_);
        return out;
    }
    const std::size_t n = ct_.cols();
    const std::size_t p = d_.rows();
    const std::size_t m = d_.cols();
    const Complex* cp = ct_.data();
    const Complex* dp = d_.data();
    for (double w : freqs) {
        const Complex z = ts_ > 0.0 ? std::exp(Complex(0.0, w * ts_))
                                    : Complex(0.0, w);
        const CMatrix& x = solver_->solve(z, bt_);
        // G = ct x + d, filled in place: a per-point operator* would
        // allocate two temporaries and rescan x for finiteness, which
        // costs more than the O(n^2) solve at small orders.
        const Complex* xp = x.data();
        CMatrix& g = out.emplace_back(p, m);
        Complex* gp = g.data();
        for (std::size_t i = 0; i < p; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                Complex s = dp[i * m + j];
                for (std::size_t k = 0; k < n; ++k) {
                    s += cp[i * n + k] * xp[k * m + j];
                }
                gp[i * m + j] = s;
            }
        }
    }
    return out;
}

std::vector<double>
logSpacedFrequencies(double lo, double hi, std::size_t points)
{
    if (!(lo > 0.0) || !(hi >= lo)) {
        throw std::invalid_argument(
            "logSpacedFrequencies: need 0 < lo <= hi");
    }
    if (points == 0 || (points == 1 && hi > lo)) {
        throw std::invalid_argument(
            "logSpacedFrequencies: need >= 2 points to span lo < hi");
    }
    if (points == 1) {
        return {lo};
    }
    std::vector<double> w(points);
    const double llo = std::log10(lo);
    const double lhi = std::log10(hi);
    for (std::size_t i = 0; i < points; ++i) {
        const double t =
            static_cast<double>(i) / static_cast<double>(points - 1);
        w[i] = std::pow(10.0, llo + (lhi - llo) * t);
    }
    // Pin both ends: pow(10, log10(x)) need not round-trip to x, and
    // discrete sweeps must hit the Nyquist frequency exactly.
    w.front() = lo;
    w.back() = hi;
    return w;
}

Matrix
StateSpace::dcGain() const
{
    Complex s = isDiscrete() ? Complex(1.0, 0.0) : Complex(0.0, 0.0);
    return evalAt(s).realPart();
}

StateSpace
StateSpace::scaled(const Matrix& out_scale, const Matrix& in_scale) const
{
    return StateSpace(a, b * in_scale, out_scale * c,
                      out_scale * d * in_scale, ts);
}

Vector
stepOnce(const StateSpace& sys, Vector& x, const Vector& u)
{
    if (x.size() != sys.numStates() || u.size() != sys.numInputs()) {
        throw std::invalid_argument("stepOnce: dimension mismatch");
    }
    Vector y = sys.c * x + sys.d * u;
    x = sys.a * x + sys.b * u;
    return y;
}

std::vector<Vector>
simulate(const StateSpace& sys, const std::vector<Vector>& inputs, Vector x0)
{
    if (!sys.isDiscrete()) {
        throw std::invalid_argument("simulate: system must be discrete");
    }
    Vector x = x0.empty() ? Vector::zeros(sys.numStates()) : std::move(x0);
    std::vector<Vector> outputs;
    outputs.reserve(inputs.size());
    for (const Vector& u : inputs) {
        outputs.push_back(stepOnce(sys, x, u));
    }
    return outputs;
}

std::vector<Vector>
stepResponse(const StateSpace& sys, std::size_t input_idx, std::size_t steps)
{
    if (input_idx >= sys.numInputs()) {
        throw std::invalid_argument("stepResponse: bad input index");
    }
    std::vector<Vector> inputs(steps, Vector::zeros(sys.numInputs()));
    for (Vector& u : inputs) {
        u[input_idx] = 1.0;
    }
    return simulate(sys, inputs);
}

}  // namespace yukta::control
