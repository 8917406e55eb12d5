#include "core/design_flow.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "control/lqg.h"
#include "core/cache.h"

namespace yukta::core {

using controllers::InputGrid;
using linalg::Matrix;
using linalg::Vector;

namespace {

std::vector<InputGrid>
gridsFromSpecs(const std::vector<SignalSpec>& inputs)
{
    std::vector<InputGrid> grids;
    grids.reserve(inputs.size());
    for (const SignalSpec& in : inputs) {
        grids.push_back({in.min, in.max, in.step});
    }
    return grids;
}

/** Strips the trailing @p num_external columns from each u sample. */
sysid::IoData
dropExternalColumns(const sysid::IoData& data, std::size_t num_external)
{
    sysid::IoData out;
    out.y = data.y;
    out.u.reserve(data.u.size());
    for (const Vector& u : data.u) {
        out.u.push_back(u.segment(0, u.size() - num_external));
    }
    return out;
}

/** The mu-synthesis recipe for @p spec against @p model. */
robust::SsvSpec
specFromLayer(const LayerSpec& spec, const sysid::ArxModel& model,
              std::size_t num_external, const robust::DkOptions& dk)
{
    robust::SsvSpec ssv;
    ssv.model = model.toStateSpace();
    ssv.num_inputs = spec.inputs.size();
    ssv.num_external = num_external;
    for (const SignalSpec& in : spec.inputs) {
        ssv.in_min.push_back(in.min);
        ssv.in_max.push_back(in.max);
        ssv.in_step.push_back(in.step);
        ssv.in_weight.push_back(in.weight);
    }
    ssv.perf_dc_boost = spec.perf_boost;
    for (const OutputSpec& out : spec.outputs) {
        ssv.out_bound.push_back(out.bound());
        ssv.out_range.push_back(out.range);
        // Critical outputs (powers/temperature) keep their declared
        // bound as-is: their bounds already sit near the actuator
        // quantization, and extra DC demand is infeasible.
        ssv.out_boost.push_back(out.critical ? 1.0 : ssv.perf_dc_boost);
    }
    ssv.guardband = spec.guardband;
    ssv.max_order = spec.max_order;
    // Moderate closed-loop bandwidth: the 500 ms loop with ~300 ms
    // sensor latency cannot support corners near Nyquist.
    ssv.perf_corner = 1.2;
    ssv.unc_corner = 3.0;
    ssv.dk = dk;
    return ssv;
}

}  // namespace

std::optional<LayerDesign>
designSsvLayer(const LayerSpec& spec, const sysid::IoData& data,
               std::size_t num_external, const DesignOptions& options)
{
    if (data.u.empty() || data.u[0].size() !=
                              spec.inputs.size() + num_external) {
        throw std::invalid_argument(
            "designSsvLayer: data does not match the spec's inputs + "
            "external signals");
    }
    if (data.y.empty() || data.y[0].size() != spec.outputs.size()) {
        throw std::invalid_argument(
            "designSsvLayer: data does not match the spec's outputs");
    }

    LayerDesign design;
    design.spec = spec;

    // Step 3 of Fig. 3: black-box model from the training records.
    design.model =
        sysid::identifyArx(data, controllers::kControlPeriod, options.arx);
    design.fit = sysid::predictionFit(design.model, data);

    // Step 4: mu-synthesis from the spec. The text form is an exact
    // round trip, so a fresh synthesis and a cache hit yield the same
    // bits. Offline, the mu sweeps get every hardware thread: the
    // synthesis itself stays on this thread, and the result is the
    // same for any worker count.
    auto res = resynthesizeSsvLayer(
        spec, design.model, num_external, options.dk, options.cache_key,
        std::max(1u, std::thread::hardware_concurrency()));
    auto ctrl = res ? ssvControllerFromText(res->controller_text)
                    : std::nullopt;
    if (!ctrl) {
        return std::nullopt;
    }
    design.controller = std::move(*ctrl);
    return design;
}

std::optional<Resynthesis>
resynthesizeSsvLayer(const LayerSpec& spec, const sysid::ArxModel& model,
                     std::size_t num_external, const robust::DkOptions& dk,
                     const std::string& cache_key, std::size_t workers)
{
    std::string path;
    if (!cache_key.empty()) {
        path = cachePath(ssvCacheKey(spec, model, num_external, dk));
        auto cached = loadSsvController(path);
        if (cached) {
            // Round-tripping through text is a fixed point, so the
            // hit serves byte-identical text to the original miss.
            return Resynthesis{ssvControllerToText(*cached), true};
        }
    }
    auto ctrl = robust::ssvSynthesize(
        specFromLayer(spec, model, num_external, dk), workers);
    if (!ctrl) {
        return std::nullopt;
    }
    if (!path.empty()) {
        saveSsvController(path, *ctrl);
    }
    return Resynthesis{ssvControllerToText(*ctrl), false};
}

controllers::SsvRuntime
makeSsvRuntime(const robust::SsvController& controller,
               const std::vector<SignalSpec>& inputs,
               const sysid::ArxModel& model)
{
    std::size_t ni = inputs.size();
    const Vector& mean = model.uMean();
    Vector u_mean = mean.segment(0, ni);
    Vector e_mean = mean.segment(ni, mean.size() - ni);
    return controllers::SsvRuntime(controller, gridsFromSpecs(inputs),
                                   u_mean, e_mean);
}

controllers::SsvRuntime
makeSsvRuntime(const LayerDesign& design)
{
    return makeSsvRuntime(design.controller, design.spec.inputs,
                          design.model);
}

std::optional<LqgDesign>
designLqgLayer(const std::vector<SignalSpec>& input_specs,
               const std::vector<double>& output_bounds,
               const sysid::IoData& data, std::size_t num_external,
               const DesignOptions& options)
{
    if (data.u.empty() ||
        data.u[0].size() != input_specs.size() + num_external) {
        throw std::invalid_argument("designLqgLayer: data/spec mismatch");
    }
    if (data.y.empty() || data.y[0].size() != output_bounds.size()) {
        throw std::invalid_argument("designLqgLayer: bad output bounds");
    }

    LqgDesign design;
    design.grids = gridsFromSpecs(input_specs);

    // LQG has no external-signal channel: identify over the actuated
    // inputs only.
    sysid::IoData own = num_external > 0
                            ? dropExternalColumns(data, num_external)
                            : data;
    design.model =
        sysid::identifyArx(own, controllers::kControlPeriod, options.arx);
    design.u_mean = design.model.uMean();

    std::string path;
    if (!options.cache_key.empty()) {
        path = cachePath(
            lqgCacheKey(input_specs, output_bounds, design.model));
        auto cached = loadStateSpace(path);
        if (cached) {
            design.controller = std::move(*cached);
            return design;
        }
    }

    control::StateSpace plant = design.model.toStateSpace();

    // Output weights comparable to the SSV bounds; input weights
    // comparable to the SSV input weights (Sec. VI-B).
    control::LqgWeights weights;
    std::size_t ny = output_bounds.size();
    Matrix wy(ny, ny);
    for (std::size_t i = 0; i < ny; ++i) {
        double b = std::max(output_bounds[i], 1e-6);
        wy(i, i) = 1.0 / (b * b);
    }
    weights.q = plant.c.transpose() * wy * plant.c;
    std::size_t nu = input_specs.size();
    Matrix wu(nu, nu);
    for (std::size_t i = 0; i < nu; ++i) {
        double range = input_specs[i].max - input_specs[i].min;
        double w = input_specs[i].weight / std::max(range, 1e-6);
        wu(i, i) = w * w;
    }
    weights.r = wu;
    weights.qn = Matrix::identity(plant.numStates());
    weights.rn = 0.1 * Matrix::identity(ny);

    auto k = control::lqgSynthesize(plant, weights);
    if (!k) {
        return std::nullopt;
    }
    design.controller = std::move(*k);

    if (!path.empty()) {
        saveStateSpace(path, design.controller);
    }
    return design;
}

controllers::LqgRuntime
makeLqgRuntime(const LqgDesign& design)
{
    return controllers::LqgRuntime(design.controller, design.grids,
                                   design.u_mean);
}

}  // namespace yukta::core
