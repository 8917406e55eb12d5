#include "control/discretize.h"

#include <stdexcept>

#include "linalg/lu.h"

namespace yukta::control {

using linalg::Matrix;

StateSpace
c2d(const StateSpace& sys, double ts)
{
    if (!sys.isContinuous()) {
        throw std::invalid_argument("c2d: system already discrete");
    }
    if (ts <= 0.0) {
        throw std::invalid_argument("c2d: sample time must be positive");
    }
    std::size_t n = sys.numStates();
    if (n == 0) {
        return StateSpace(sys.a, sys.b, sys.c, sys.d, ts);
    }
    double h = 0.5 * ts;

    Matrix ima = Matrix::identity(n) - h * sys.a;
    linalg::Lu lu(ima);
    if (!lu.invertible()) {
        throw std::runtime_error("c2d: (I - A Ts/2) singular");
    }
    Matrix e = lu.inverse();

    Matrix ad = e * (Matrix::identity(n) + h * sys.a);
    Matrix bd = e * sys.b * ts;
    Matrix cd = sys.c * e;
    Matrix dd = sys.d + 0.5 * (sys.c * bd);
    return StateSpace(ad, bd, cd, dd, ts);
}

StateSpace
d2c(const StateSpace& sys)
{
    if (!sys.isDiscrete()) {
        throw std::invalid_argument("d2c: system is not discrete");
    }
    std::size_t n = sys.numStates();
    if (n == 0) {
        return StateSpace(sys.a, sys.b, sys.c, sys.d, 0.0);
    }
    double ts = sys.ts;
    double h = 0.5 * ts;

    Matrix apl = sys.a + Matrix::identity(n);
    linalg::Lu lu(apl);
    if (!lu.invertible()) {
        throw std::runtime_error("d2c: pole at z = -1");
    }
    Matrix apl_inv = lu.inverse();

    Matrix a = (1.0 / h) * ((sys.a - Matrix::identity(n)) * apl_inv);
    Matrix b = (2.0 / ts) * (apl_inv * sys.b);
    Matrix c = 2.0 * (sys.c * apl_inv);
    Matrix d = sys.d - 0.5 * (c * sys.b);
    return StateSpace(a, b, c, d, 0.0);
}

}  // namespace yukta::control
