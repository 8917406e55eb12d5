#include "control/interconnect.h"

#include <stdexcept>

#include "linalg/lu.h"

namespace yukta::control {

using linalg::Matrix;

namespace {

void
checkSameTimebase(const StateSpace& g1, const StateSpace& g2,
                  const char* what)
{
    if (g1.ts != g2.ts) {
        throw std::invalid_argument(std::string(what) +
                                    ": sample time mismatch");
    }
}

}  // namespace

StateSpace
series(const StateSpace& g1, const StateSpace& g2)
{
    checkSameTimebase(g1, g2, "series");
    if (g2.numInputs() != g1.numOutputs()) {
        throw std::invalid_argument("series: port mismatch");
    }
    std::size_t n1 = g1.numStates();
    std::size_t n2 = g2.numStates();

    Matrix a(n1 + n2, n1 + n2);
    a.setBlock(0, 0, g1.a);
    a.setBlock(n1, 0, g2.b * g1.c);
    a.setBlock(n1, n1, g2.a);

    Matrix b = vstack(g1.b, g2.b * g1.d);
    Matrix c = hstack(g2.d * g1.c, g2.c);
    Matrix d = g2.d * g1.d;
    return StateSpace(a, b, c, d, g1.ts);
}

StateSpace
append(const StateSpace& g1, const StateSpace& g2)
{
    checkSameTimebase(g1, g2, "append");
    Matrix a = blkdiag(g1.a, g2.a);
    Matrix b = blkdiag(g1.b, g2.b);
    Matrix c = blkdiag(g1.c, g2.c);
    Matrix d = blkdiag(g1.d, g2.d);
    return StateSpace(a, b, c, d, g1.ts);
}

StateSpace
lftLower(const StateSpace& p, const StateSpace& k, std::size_t nz,
         std::size_t nw)
{
    checkSameTimebase(p, k, "lftLower");
    if (nz > p.numOutputs() || nw > p.numInputs()) {
        throw std::invalid_argument("lftLower: bad partition");
    }
    std::size_t ny = p.numOutputs() - nz;
    std::size_t nu = p.numInputs() - nw;
    if (k.numInputs() != ny || k.numOutputs() != nu) {
        throw std::invalid_argument("lftLower: controller port mismatch");
    }
    std::size_t n = p.numStates();
    std::size_t nk = k.numStates();

    Matrix b1 = p.b.block(0, 0, n, nw);
    Matrix b2 = p.b.block(0, nw, n, nu);
    Matrix c1 = p.c.block(0, 0, nz, n);
    Matrix c2 = p.c.block(nz, 0, ny, n);
    Matrix d11 = p.d.block(0, 0, nz, nw);
    Matrix d12 = p.d.block(0, nw, nz, nu);
    Matrix d21 = p.d.block(nz, 0, ny, nw);
    Matrix d22 = p.d.block(nz, nw, ny, nu);

    // Well-posedness: y = C2 x + D21 w + D22 u, u = Ck xk + Dk y.
    Matrix i_d22dk = Matrix::identity(ny) - d22 * k.d;
    linalg::Lu lu(i_d22dk);
    if (!lu.invertible()) {
        throw std::runtime_error("lftLower: ill-posed interconnection");
    }
    Matrix r = lu.inverse();

    // y = r (C2 x + D22 Ck xk + D21 w)
    Matrix y_x = r * c2;
    Matrix y_xk = r * d22 * k.c;
    Matrix y_w = r * d21;

    // u = Dk y + Ck xk
    Matrix u_x = k.d * y_x;
    Matrix u_xk = k.d * y_xk + k.c;
    Matrix u_w = k.d * y_w;

    Matrix a(n + nk, n + nk);
    a.setBlock(0, 0, p.a + b2 * u_x);
    a.setBlock(0, n, b2 * u_xk);
    a.setBlock(n, 0, k.b * y_x);
    a.setBlock(n, n, k.a + k.b * y_xk);

    Matrix b = vstack(b1 + b2 * u_w, k.b * y_w);
    Matrix c = hstack(c1 + d12 * u_x, d12 * u_xk);
    Matrix d = d11 + d12 * u_w;
    return StateSpace(a, b, c, d, p.ts);
}

}  // namespace yukta::control
