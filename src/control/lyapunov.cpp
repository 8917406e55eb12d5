#include "control/lyapunov.h"

#include <stdexcept>

namespace yukta::control {

using linalg::Matrix;

Matrix
dlyap(const Matrix& a, const Matrix& q)
{
    if (!a.isSquare() || !q.isSquare() || a.rows() != q.rows()) {
        throw std::invalid_argument("dlyap: shape mismatch");
    }
    // Smith doubling: X = sum_k A^k Q (A^T)^k.
    Matrix x = q;
    Matrix ak = a;
    const int max_iter = 200;
    for (int i = 0; i < max_iter; ++i) {
        Matrix incr = ak * x * ak.transpose();
        double delta = incr.maxAbs();
        x += incr;
        ak = ak * ak;
        if (delta <= 1e-14 * (1.0 + x.maxAbs())) {
            // Symmetrize against accumulation error.
            return 0.5 * (x + x.transpose());
        }
        if (x.maxAbs() > 1e100) {
            break;
        }
    }
    throw std::runtime_error("dlyap: iteration diverged (A unstable?)");
}

}  // namespace yukta::control
