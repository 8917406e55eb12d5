#include "support/hinf_norm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "control/discretize.h"
#include "linalg/eig.h"
#include "linalg/lu.h"
#include "linalg/svd.h"

namespace yukta::control {

using linalg::Matrix;

bool
gammaHamiltonianHasImaginaryEigenvalue(const StateSpace& sys, double gamma,
                                       double axis_tol)
{
    std::size_t n = sys.numStates();
    std::size_t m = sys.numInputs();
    if (n == 0) {
        return false;
    }
    // R = gamma^2 I - D'D must be positive definite for the test.
    Matrix r = gamma * gamma * Matrix::identity(m) -
               sys.d.transpose() * sys.d;
    linalg::Lu lu(r);
    if (!lu.invertible()) {
        return true;  // gamma == sigma_max(D): boundary case
    }
    Matrix rinv = lu.inverse();

    Matrix a_h = sys.a + sys.b * rinv * sys.d.transpose() * sys.c;
    Matrix g_h = sys.b * rinv * sys.b.transpose();
    Matrix q_h =
        sys.c.transpose() *
        (Matrix::identity(sys.numOutputs()) +
         sys.d * rinv * sys.d.transpose()) *
        sys.c;

    Matrix ham(2 * n, 2 * n);
    ham.setBlock(0, 0, a_h);
    ham.setBlock(0, n, g_h);
    ham.setBlock(n, 0, -1.0 * q_h);
    ham.setBlock(n, n, -1.0 * a_h.transpose());

    double scale = std::max(1.0, ham.normInf());
    for (const linalg::Complex& l : linalg::eigenvalues(ham)) {
        if (std::abs(l.real()) <= axis_tol * scale) {
            return true;
        }
    }
    return false;
}

double
hinfNormExact(const StateSpace& sys, double rtol)
{
    if (!sys.isStable(1e-12)) {
        throw std::invalid_argument("hinfNormExact: system must be stable");
    }
    StateSpace g = sys.isDiscrete() ? d2c(sys) : sys;

    // Lower bound: max of sigma_max at DC, at a mid frequency, and at
    // infinity (D); upper bound from a coarse growth search.
    double lo = linalg::sigmaMax(g.dcGain());
    lo = std::max(lo, linalg::sigmaMax(g.d));
    lo = std::max(lo, linalg::sigmaMax(g.freqResponse(1.0)));
    lo = std::max(lo, 1e-12);

    double hi = 2.0 * lo + 1e-9;
    int guard = 0;
    while (gammaHamiltonianHasImaginaryEigenvalue(g, hi) && guard++ < 60) {
        hi *= 2.0;
    }

    while (hi - lo > rtol * lo) {
        double mid = 0.5 * (lo + hi);
        if (gammaHamiltonianHasImaginaryEigenvalue(g, mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

}  // namespace yukta::control
