// OnlineAdapter unit tests on a synthetic SISO plant: the
// monitor -> settle -> synth-ready phase walk, the closed-loop
// calibration window, drift trace events, and mid-phase save/load
// bit-identity (the property fleet checkpoints ride on). The
// synthesis / hot-swap halves run against the real hardware layer in
// tests/fleet/fleet_adapt_test.cpp.
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adapt.h"
#include "obs/stateio.h"
#include "obs/trace.h"
#include "sysid/arx.h"
#include "support/excitation.h"

namespace yukta::core {
namespace {

using linalg::Vector;

/**
 * First-order SISO plant y(t) = a1 y(t-1) + b1 u(t-1) + noise, the
 * lag-1 convention identifyArx assumes. The deterministic
 * measurement noise keeps the training residual sigma meaningfully
 * non-zero (a noise-free fit would make every later prediction error
 * look like infinite sigma).
 */
struct Plant
{
    double a1 = 0.6;
    double b1 = 0.5;
    double y1 = 0.0;
    double u1 = 0.0;
    std::mt19937 rng{0xAB5u};

    double step(double u)
    {
        std::normal_distribution<double> dist(0.0, 0.02);
        double y = a1 * y1 + b1 * u1 + dist(rng);
        y1 = y;
        u1 = u;
        return y;
    }
};

sysid::IoData
trainingData()
{
    sysid::IoData data;
    Plant plant;
    for (double ut : sysid::prbs(400, -1.0, 1.0, 3, 0xADA7)) {
        data.u.push_back(Vector{ut});
        data.y.push_back(Vector{plant.step(ut)});
    }
    return data;
}

LayerSpec
sisoSpec()
{
    LayerSpec spec;
    spec.layer_name = "siso";
    spec.inputs.push_back({"u", -1.0, 1.0, 0.0, 1.0});
    spec.outputs.push_back({"y", 0.2, 2.0, false});
    return spec;
}

AdaptOptions
fastOptions()
{
    AdaptOptions opt;
    opt.warmup_ticks = 10;
    opt.calibration_ticks = 10;
    opt.settle_ticks = 10;
    opt.swap_delay_ticks = 2;
    opt.cooldown_ticks = 10;
    opt.cusum.slack_sigma = 2.5;
    opt.cusum.threshold = 20.0;
    return opt;
}

/** Drives @p adapter with @p plant under a PRBS input for @p steps. */
void
drive(OnlineAdapter& adapter, Plant& plant, std::size_t steps,
      unsigned seed)
{
    auto u = sysid::prbs(steps, -1.0, 1.0, 3, 0x5EED + seed);
    for (double ut : u) {
        adapter.observe(Vector{ut}, Vector{plant.step(ut)});
    }
}

TEST(OnlineAdapterTest, StaysInMonitorOnTheShippedPlant)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    OnlineAdapter adapter(sisoSpec(), 0, shipped, data, fastOptions());

    Plant plant;
    drive(adapter, plant, 500, 1);
    EXPECT_EQ(adapter.phase(), OnlineAdapter::Phase::kMonitor);
    EXPECT_EQ(adapter.driftEvents(), 0);
    EXPECT_FALSE(adapter.synthesisDue());
}

TEST(OnlineAdapterTest, WalksToSynthReadyOnPlantShift)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    OnlineAdapter adapter(sisoSpec(), 0, shipped, data, fastOptions());

    obs::TraceSink sink("adapt-test");
    adapter.setTraceSink(&sink);

    Plant plant;
    drive(adapter, plant, 100, 2);
    ASSERT_EQ(adapter.phase(), OnlineAdapter::Phase::kMonitor);

    // The plant gain doubles: the shipped model's prediction error
    // grows to several training sigma, the CUSUM fires, and after
    // settle_ticks the drifted model snapshot is frozen.
    plant.b1 = 1.0;
    drive(adapter, plant, 100, 3);
    EXPECT_GE(adapter.driftEvents(), 1);
    EXPECT_TRUE(adapter.synthesisDue());
    EXPECT_EQ(adapter.phase(), OnlineAdapter::Phase::kSynthReady);

    // The detection landed in the trace.
    bool saw_drift = false;
    for (const obs::TraceEvent& ev : sink.events()) {
        if (ev.layer() == "adapt" && ev.kind() == "drift") {
            saw_drift = true;
        }
    }
    EXPECT_TRUE(saw_drift);
}

TEST(OnlineAdapterTest, ThrowingSynthesisDisablesTheAdapter)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    // The synthesizer rejects a zero guardband with an exception; the
    // drift walk before it never reads the guardband.
    LayerSpec spec = sisoSpec();
    spec.guardband = 0.0;
    OnlineAdapter adapter(spec, 0, shipped, data, fastOptions());
    obs::TraceSink sink("adapt-test");
    adapter.setTraceSink(&sink);

    Plant plant;
    drive(adapter, plant, 100, 2);
    plant.b1 = 1.0;
    drive(adapter, plant, 100, 3);
    ASSERT_EQ(adapter.phase(), OnlineAdapter::Phase::kSynthReady);

    bool ok = true;
    EXPECT_NO_THROW(ok = adapter.synthesize());
    EXPECT_FALSE(ok);
    EXPECT_EQ(adapter.phase(), OnlineAdapter::Phase::kDisabled);
    EXPECT_FALSE(adapter.synthesisDue());
    EXPECT_EQ(adapter.syntheses(), 1);

    // Disabled for good: a second dispatch is a no-op.
    EXPECT_FALSE(adapter.synthesize());
    EXPECT_EQ(adapter.phase(), OnlineAdapter::Phase::kDisabled);
    EXPECT_EQ(adapter.syntheses(), 1);

    // One synthesis event, ok=0, carrying the synthesizer's message.
    int events = 0;
    for (const obs::TraceEvent& ev : sink.events()) {
        if (ev.layer() != "adapt" || ev.kind() != "synthesis") {
            continue;
        }
        ++events;
        std::map<std::string, std::string> fields(ev.fields().begin(),
                                                  ev.fields().end());
        EXPECT_EQ(fields["ok"], "0");
        EXPECT_NE(fields["error"].find("guardband"), std::string::npos);
    }
    EXPECT_EQ(events, 1);
}

TEST(OnlineAdapterTest, SaveLoadRoundTripIsBitExactMidPhase)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    OnlineAdapter a(sisoSpec(), 0, shipped, data, fastOptions());

    // Stop mid-calibration-and-drift: warmup done, calibration done,
    // detector integrating a live shift -- the maximally stateful
    // moment.
    Plant plant_a;
    drive(a, plant_a, 60, 4);
    plant_a.b1 = 1.0;
    drive(a, plant_a, 5, 5);

    obs::StateWriter w1;
    a.save(w1);
    OnlineAdapter b(sisoSpec(), 0, shipped, data, fastOptions());
    obs::StateReader r(w1.take());
    b.load(r);

    // Continue both in lockstep on identical samples: every
    // subsequent dump must match byte for byte.
    Plant plant_b = plant_a;
    drive(a, plant_a, 50, 6);
    drive(b, plant_b, 50, 6);
    EXPECT_EQ(a.phase(), b.phase());
    EXPECT_EQ(a.driftEvents(), b.driftEvents());
    obs::StateWriter wa;
    obs::StateWriter wb;
    a.save(wa);
    b.save(wb);
    EXPECT_EQ(wa.take(), wb.take());
}

TEST(OnlineAdapterTest, CalibrationDisabledKeepsUnitScales)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    AdaptOptions opt = fastOptions();
    opt.calibration_ticks = 0;  // Detector arms straight off warmup.
    OnlineAdapter adapter(sisoSpec(), 0, shipped, data, opt);

    Plant plant;
    drive(adapter, plant, 200, 7);
    // Open-loop on the shipped plant the errors match the training
    // residuals, so even uncalibrated the detector stays quiet.
    EXPECT_EQ(adapter.driftEvents(), 0);

    plant.b1 = 1.0;
    drive(adapter, plant, 100, 8);
    EXPECT_GE(adapter.driftEvents(), 1);
}

TEST(OnlineAdapterTest, ValidatesSpecAgainstModelShape)
{
    sysid::IoData data = trainingData();
    sysid::ArxModel shipped = sysid::identifyArx(data, 0.5, {1, 1, 1e-8});
    LayerSpec two_inputs = sisoSpec();
    two_inputs.inputs.push_back({"u2", -1.0, 1.0, 0.0, 1.0});
    EXPECT_THROW(
        OnlineAdapter(two_inputs, 0, shipped, data, fastOptions()),
        std::invalid_argument);
    LayerSpec two_outputs = sisoSpec();
    two_outputs.outputs.push_back({"y2", 0.2, 1.0, false});
    EXPECT_THROW(
        OnlineAdapter(two_outputs, 0, shipped, data, fastOptions()),
        std::invalid_argument);
}

}  // namespace
}  // namespace yukta::core
