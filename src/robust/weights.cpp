#include "robust/weights.h"

#include <stdexcept>

#include "control/interconnect.h"

namespace yukta::robust {

using control::StateSpace;
using linalg::Matrix;

StateSpace
makeWeight(double dc, double wc, double hf)
{
    if (wc <= 0.0) {
        throw std::invalid_argument("makeWeight: corner must be positive");
    }
    Matrix a{{-wc}};
    Matrix b{{wc}};
    Matrix c{{dc - hf}};
    Matrix d{{hf}};
    return StateSpace(a, b, c, d, 0.0);
}

StateSpace
makeDiagonalWeight(const std::vector<double>& dc_gains, double wc, double hf)
{
    if (dc_gains.empty()) {
        throw std::invalid_argument("makeDiagonalWeight: empty gain list");
    }
    StateSpace w = makeWeight(dc_gains[0], wc, hf);
    for (std::size_t i = 1; i < dc_gains.size(); ++i) {
        w = control::append(w, makeWeight(dc_gains[i], wc, hf));
    }
    return w;
}

}  // namespace yukta::robust
