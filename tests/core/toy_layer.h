#ifndef YUKTA_TESTS_CORE_TOY_LAYER_H_
#define YUKTA_TESTS_CORE_TOY_LAYER_H_

/**
 * @file
 * A small, well-behaved layer for design-flow tests (no training
 * campaign): two actuated inputs, two outputs, one external signal,
 * and records simulated from a decoupled 2x2 first-order plant,
 * y_i(T) = a_i y_i(T-1) + g_i u_i(T-1) + c_i e(T-1), so identifying
 * with toyArx() recovers the plant exactly.
 */

#include <random>
#include <vector>

#include "control/state_space.h"
#include "core/spec.h"
#include "sysid/arx.h"

namespace yukta::core::test {

/** @return the toy layer's declaration. */
inline LayerSpec
toySpec()
{
    LayerSpec spec;
    spec.layer_name = "toy";
    spec.inputs = {{"u1", 0.0, 4.0, 0.1, 1.0}, {"u2", 0.0, 2.0, 0.1, 1.0}};
    spec.outputs = {{"y1", 0.2, 4.0, false}, {"y2", 0.2, 2.0, false}};
    spec.external_names = {"e1"};
    spec.guardband = 0.3;
    spec.max_order = 8;
    return spec;
}

/** @return identification options matching the toy plant's structure. */
inline sysid::ArxOptions
toyArx()
{
    return {1, 1, 1e-8, false, false};
}

/** @return 400 records of the toy plant under seeded random inputs. */
inline sysid::IoData
toyRecords()
{
    using linalg::Matrix;
    using linalg::Vector;
    std::vector<Matrix> a_coeffs = {Matrix{{0.5, 0.0}, {0.0, 0.6}}};
    std::vector<Matrix> b_coeffs = {
        Matrix{{0.8, 0.0, 0.05}, {0.0, 0.5, 0.02}}};
    sysid::ArxModel model(a_coeffs, b_coeffs, Vector{2.0, 1.0, 0.0},
                          Vector{3.0, 1.2}, 0.5);

    sysid::IoData data;
    control::StateSpace ss = model.toStateSpace();
    Vector x = Vector::zeros(ss.numStates());
    std::mt19937 rng(9);
    std::uniform_real_distribution<double> du(-1.0, 1.0);
    for (int t = 0; t < 400; ++t) {
        Vector u{2.0 + 2.0 * du(rng), 1.0 + du(rng), 0.3 * du(rng)};
        Vector uc = u - model.uMean();
        Vector y = control::stepOnce(ss, x, uc) + model.yMean();
        data.u.push_back(u);
        data.y.push_back(y);
    }
    return data;
}

}  // namespace yukta::core::test

#endif  // YUKTA_TESTS_CORE_TOY_LAYER_H_
