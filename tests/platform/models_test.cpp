// Tests for DVFS tables, power/thermal models, workloads, apps,
// scheduler mechanics, sensors, and the TMU.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "platform/apps.h"
#include "platform/dvfs.h"
#include "platform/power_thermal.h"
#include "platform/scheduler.h"
#include "platform/sensors.h"
#include "platform/tmu.h"
#include "platform/workload.h"

namespace yukta::platform {
namespace {

BoardConfig cfg = BoardConfig::odroidXu3();

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * Brute-force runnable scan over the saved workload state: the owning
 * instance of each thread with work left, in instance-then-thread
 * order.
 */
std::vector<std::size_t>
scanRunnable(const Workload& w)
{
    Workload copy = w;
    obs::StateWriter out;
    copy.state(out);
    obs::StateReader r(out.take());
    std::vector<std::size_t> owner;
    const std::uint64_t instances = r.u64("workload.instances");
    for (std::size_t i = 0; i < instances; ++i) {
        const std::string p = "workload.i" + std::to_string(i);
        r.u64(p + ".phase");
        r.boolean(p + ".finished");
        const std::uint64_t threads = r.u64(p + ".threads");
        for (std::size_t t = 0; t < threads; ++t) {
            const std::string tp = p + ".t" + std::to_string(t);
            if (r.f64(tp + ".remaining") > 0.0) {
                owner.push_back(i);
            }
            r.boolean(tp + ".at_barrier");
        }
    }
    return owner;
}

/** The runnable index agrees with a brute-force scan. */
void
expectIndexMatchesScan(const Workload& w)
{
    const std::vector<std::size_t> owner = scanRunnable(w);
    ASSERT_EQ(w.numRunnableThreads(), owner.size());
    for (std::size_t i = 0; i < owner.size(); ++i) {
        EXPECT_EQ(w.threadInfo(i).instance, owner[i]) << "thread " << i;
    }
    EXPECT_THROW(w.threadInfo(owner.size()), std::out_of_range);
}

TEST(Dvfs, GridMatchesPaper)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    // Big: 0.2..2.0 GHz in 0.1 steps = 19 levels; little: 0.2..1.4 = 13.
    EXPECT_EQ(big.numLevels(), 19u);
    EXPECT_EQ(little.numLevels(), 13u);
    EXPECT_DOUBLE_EQ(big.minFreq(), 0.2);
    EXPECT_DOUBLE_EQ(big.maxFreq(), 2.0);
    EXPECT_DOUBLE_EQ(little.maxFreq(), 1.4);
}

TEST(Dvfs, QuantizeSnapsToGrid)
{
    DvfsTable big(cfg.big);
    EXPECT_DOUBLE_EQ(big.quantize(1.234), 1.2);
    EXPECT_DOUBLE_EQ(big.quantize(1.26), 1.3);
    EXPECT_DOUBLE_EQ(big.quantize(-5.0), 0.2);
    EXPECT_DOUBLE_EQ(big.quantize(9.0), 2.0);
}

TEST(Dvfs, StepUpDownSaturate)
{
    DvfsTable big(cfg.big);
    EXPECT_DOUBLE_EQ(big.stepDown(0.2), 0.2);
    EXPECT_DOUBLE_EQ(big.stepUp(2.0), 2.0);
    EXPECT_DOUBLE_EQ(big.stepDown(1.0, 3), 0.7);
    EXPECT_DOUBLE_EQ(big.stepUp(1.0, 2), 1.2);
}

TEST(Dvfs, VoltageMonotone)
{
    DvfsTable big(cfg.big);
    double prev = 0.0;
    for (double f : big.frequencies()) {
        double v = big.voltage(f);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_NEAR(big.voltage(0.2), cfg.big.volt_min, 1e-12);
    EXPECT_NEAR(big.voltage(2.0), cfg.big.volt_max, 1e-12);
}

TEST(Power, CalibrationBindsAtPaperLimits)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    PowerModel pm_big(cfg.big, big);
    PowerModel pm_little(cfg.little, little);

    // Big cluster flat out must exceed the 3.3 W cap...
    ClusterActivity full{4, 2.0, 1.0, 1.0};
    EXPECT_GT(pm_big.clusterPower(full, 60.0), cfg.power_limit_big);
    // ...but a mid-frequency point must fit under it.
    ClusterActivity mid{4, 1.1, 1.0, 1.0};
    EXPECT_LT(pm_big.clusterPower(mid, 60.0), cfg.power_limit_big);

    // Little cluster flat out exceeds 0.33 W; low frequency fits.
    ClusterActivity lfull{4, 1.4, 1.0, 1.0};
    ClusterActivity llow{4, 0.6, 1.0, 1.0};
    EXPECT_GT(pm_little.clusterPower(lfull, 50.0),
              cfg.power_limit_little);
    EXPECT_LT(pm_little.clusterPower(llow, 50.0), cfg.power_limit_little);
}

TEST(Power, MonotoneInFrequencyAndCores)
{
    DvfsTable big(cfg.big);
    PowerModel pm(cfg.big, big);
    double prev = 0.0;
    for (double f : big.frequencies()) {
        ClusterActivity a{4, f, 1.0, 1.0};
        double p = pm.clusterPower(a, 50.0);
        EXPECT_GT(p, prev);
        prev = p;
    }
    for (std::size_t n = 1; n <= 4; ++n) {
        ClusterActivity a{n, 1.0, 1.0, 1.0};
        EXPECT_GT(pm.clusterPower(a, 50.0),
                  pm.clusterPower({n - 1, 1.0, 1.0, 1.0}, 50.0));
    }
}

TEST(Power, LeakageGrowsWithTemperature)
{
    DvfsTable big(cfg.big);
    PowerModel pm(cfg.big, big);
    ClusterActivity a{4, 1.5, 0.5, 1.0};
    const OperatingPoint op = pm.operatingPoint(a.freq);
    EXPECT_GT(pm.leakagePower(a, op, 80.0), pm.leakagePower(a, op, 40.0));
}

TEST(Power, CachedOperatingPointIsBitwiseClusterPower)
{
    // The board computes each operating point once per applied
    // frequency. Power at it must equal, to the bit, both the
    // quantize-every-call path and the model's closed form.
    for (const ClusterConfig* cc : {&cfg.big, &cfg.little}) {
        DvfsTable dvfs(*cc);
        PowerModel pm(*cc, dvfs);
        std::vector<double> freqs = dvfs.frequencies();
        freqs.push_back(1.234);  // off the grid
        freqs.push_back(9.0);    // above the range
        for (double freq : freqs) {
            const OperatingPoint op = pm.operatingPoint(freq);
            const double f = dvfs.quantize(freq);
            const double v = dvfs.voltage(f);
            EXPECT_EQ(bits(op.freq), bits(f));
            EXPECT_EQ(bits(op.volt), bits(v));
            for (double temp : {30.0, 61.5, 90.0}) {
                ClusterActivity a{3, freq, 0.7, 0.95};
                const double cores = static_cast<double>(a.cores_on);
                const double dyn = cc->ceff * a.activity * v * v * f *
                                   std::clamp(a.avg_utilization, 0.0, 1.0) *
                                   cores;
                const double leak =
                    cc->leak_ref * (v / cc->volt_max) *
                    std::max(1.0 + cc->leak_tc * (temp - 45.0), 0.2) *
                    cores;
                const double closed = dyn + leak + cc->uncore;
                const double cached = pm.clusterPower(a, op, temp);
                EXPECT_EQ(bits(cached), bits(pm.clusterPower(a, temp)))
                    << freq;
                EXPECT_EQ(bits(cached), bits(closed)) << freq;

                ClusterActivity off{0, freq, 0.7, 0.95};
                EXPECT_EQ(bits(pm.clusterPower(off, op, temp)),
                          bits(pm.clusterPower(off, temp)));
                EXPECT_EQ(bits(pm.clusterPower(off, op, temp)), bits(0.0));
            }
        }
    }
}

TEST(Power, ZeroCoresZeroPower)
{
    DvfsTable big(cfg.big);
    PowerModel pm(cfg.big, big);
    ClusterActivity off{0, 1.0, 0.0, 1.0};
    EXPECT_DOUBLE_EQ(pm.clusterPower(off, 50.0), 0.0);
}

TEST(Thermal, ApproachesSteadyState)
{
    ThermalModel tm(cfg.thermal);
    double p = 4.0;
    for (int i = 0; i < 400000; ++i) {
        tm.step(p, 1e-3);
    }
    EXPECT_NEAR(tm.hotspot(), tm.steadyState(p), 0.5);
    // Steady state ~ 25 + 4 * 9 = 61 C.
    EXPECT_NEAR(tm.steadyState(p), 61.0, 1e-9);
}

TEST(Thermal, MaxPowerPushesTowardLimit)
{
    // Sustained max power should threaten the 79 C limit (paper's
    // thermal constraint must actually bind).
    ThermalModel tm(cfg.thermal);
    EXPECT_GT(tm.steadyState(5.8), cfg.temp_limit - 5.0);
}

TEST(Thermal, StepMatchesClosedFormAcrossDtChanges)
{
    // The exp() coefficients are cached per dt; a dt change must
    // recompute them. The closed form recomputes them every step.
    ThermalModel tm(cfg.thermal);
    const ThermalConfig& tc = cfg.thermal;
    double si = tc.ambient;
    double hs = tc.ambient;
    const std::vector<std::pair<double, double>> steps = {
        {3.0, 1e-3}, {3.5, 1e-3}, {4.0, 5.0}, {2.0, 5.0}, {4.5, 1e-3},
        {1.0, 1e-3}};
    for (const auto& [p, dt] : steps) {
        tm.step(p, dt);
        const double target_si = hs + p * tc.r_silicon;
        const double target_hs = tc.ambient + p * tc.r_heatsink;
        si += (1.0 - std::exp(-dt / tc.tau_silicon)) * (target_si - si);
        hs += (1.0 - std::exp(-dt / tc.tau_heatsink)) * (target_hs - hs);
        EXPECT_EQ(bits(tm.hotspot()), bits(si)) << "dt=" << dt;
        EXPECT_EQ(bits(tm.heatsink()), bits(hs)) << "dt=" << dt;
    }
}

TEST(Thermal, ResetRestoresAmbient)
{
    ThermalModel tm(cfg.thermal);
    tm.step(10.0, 5.0);
    EXPECT_GT(tm.hotspot(), cfg.thermal.ambient);
    tm.reset();
    EXPECT_DOUBLE_EQ(tm.hotspot(), cfg.thermal.ambient);
}

TEST(Workload, PhaseProgression)
{
    AppModel app = AppCatalog::get("blackscholes");
    Workload w(app);
    // Serial phase: one thread.
    EXPECT_EQ(w.numRunnableThreads(), 1u);
    std::size_t v0 = w.placementVersion();
    expectIndexMatchesScan(w);
    // Partial progress leaves the runnable set alone.
    w.retire(0, 1.0);
    expectIndexMatchesScan(w);
    // Finish the serial phase.
    w.retire(0, app.phases[0].work_per_thread + 1.0);
    expectIndexMatchesScan(w);
    EXPECT_EQ(w.numRunnableThreads(), 8u);
    EXPECT_GT(w.placementVersion(), v0);
    EXPECT_FALSE(w.done());
}

TEST(Workload, BarrierHoldsUntilAllFinish)
{
    AppModel app = AppCatalog::get("blackscholes");
    Workload w(app);
    w.retire(0, 1e9);  // finish serial
    expectIndexMatchesScan(w);
    // Finish 7 of 8 parallel threads: still in the same phase.
    for (std::size_t t = 0; t < 7; ++t) {
        w.retire(0, 1e9);  // dense indices shift as threads finish
        expectIndexMatchesScan(w);
    }
    EXPECT_EQ(w.numRunnableThreads(), 1u);
    EXPECT_FALSE(w.done());
    w.retire(0, 1e9);
    expectIndexMatchesScan(w);
    EXPECT_TRUE(w.done());
    EXPECT_EQ(w.numRunnableThreads(), 0u);
}

TEST(Workload, SpecCopiesIndependent)
{
    Workload w(AppCatalog::get("mcf"));
    EXPECT_EQ(w.numRunnableThreads(), 8u);
    w.retire(0, 1e9);
    expectIndexMatchesScan(w);
    // One copy done: it leaves the runnable set immediately.
    EXPECT_EQ(w.numRunnableThreads(), 7u);
    w.retire(3, 1e9);  // a copy from the middle
    expectIndexMatchesScan(w);
    EXPECT_EQ(w.numRunnableThreads(), 6u);
}

TEST(Workload, WorkRemainingDecreases)
{
    Workload w(AppCatalog::get("gamess"));
    double w0 = w.workRemaining();
    w.retire(0, 10.0);
    expectIndexMatchesScan(w);
    EXPECT_NEAR(w.workRemaining(), w0 - 10.0, 1e-9);
}

TEST(Workload, MixesCombineApps)
{
    Workload w = AppCatalog::getMix("blmc");
    // blackscholes starts serial (1 thread), mcf starts with 4 copies.
    EXPECT_EQ(w.numRunnableThreads(), 5u);
    EXPECT_EQ(w.name(), "blackscholes+mcf");
    expectIndexMatchesScan(w);
    // An mcf copy finishes, then blackscholes leaves its serial phase:
    // the second instance's threads move behind the first's.
    w.retire(2, 1e9);
    expectIndexMatchesScan(w);
    w.retire(0, 1e9);
    expectIndexMatchesScan(w);
    EXPECT_EQ(w.threadInfo(0).instance, 0u);
    EXPECT_EQ(w.threadInfo(w.numRunnableThreads() - 1).instance, 1u);
}

TEST(Workload, LoadRebuildsRunnableIndex)
{
    Workload w = AppCatalog::getMix("blmc");
    w.retire(0, 1e9);  // blackscholes enters its parallel phase
    w.retire(6, 1e9);  // and an mcf copy completes
    obs::StateWriter out;
    w.state(out);
    Workload fresh = AppCatalog::getMix("blmc");
    obs::StateReader r(out.take());
    fresh.state(r);
    EXPECT_EQ(fresh.numRunnableThreads(), w.numRunnableThreads());
    expectIndexMatchesScan(fresh);
}

TEST(Apps, CatalogComplete)
{
    EXPECT_EQ(AppCatalog::specApps().size(), 6u);
    EXPECT_EQ(AppCatalog::parsecApps().size(), 8u);
    EXPECT_EQ(AppCatalog::trainingApps().size(), 6u);
    EXPECT_EQ(AppCatalog::evaluationApps().size(), 14u);
    EXPECT_EQ(AppCatalog::mixNames().size(), 4u);
    for (const auto& name : AppCatalog::evaluationApps()) {
        EXPECT_NO_THROW(AppCatalog::get(name));
    }
    EXPECT_THROW(AppCatalog::get("doom"), std::invalid_argument);
    EXPECT_EQ(AppCatalog::shortLabel("blackscholes"), "bla");
    EXPECT_EQ(AppCatalog::shortLabel("mcf"), "mcf");
}

TEST(Apps, LittleIpcBelowBig)
{
    for (const auto& name : AppCatalog::evaluationApps()) {
        AppModel a = AppCatalog::get(name);
        EXPECT_LT(a.ipc_little, a.ipc_big) << name;
        EXPECT_GT(a.totalWork(), 0.0) << name;
    }
}

TEST(Scheduler, SplitsThreadsPerPolicy)
{
    PlacementPolicy pol{5.0, 2.0, 1.0};
    Placement p = placeThreads(pol, 8, 4, 4);
    EXPECT_EQ(p.threadsOn(ClusterId::kBig), 5u);
    EXPECT_EQ(p.threadsOn(ClusterId::kLittle), 3u);
    // 5 threads at ~2 per core -> 3 busy big cores (ceil(5/2)).
    EXPECT_EQ(p.busyCores(ClusterId::kBig), 3u);
    EXPECT_EQ(p.busyCores(ClusterId::kLittle), 3u);
    EXPECT_EQ(p.idleCoresOn(ClusterId::kBig), 1u);
}

TEST(Scheduler, ClampsInfeasiblePolicy)
{
    PlacementPolicy pol{20.0, 1.0, 1.0};
    Placement p = placeThreads(pol, 6, 2, 4);
    EXPECT_EQ(p.threadsOn(ClusterId::kBig), 6u);
    // Only 2 big cores on: threads pile up there.
    EXPECT_EQ(p.busyCores(ClusterId::kBig), 2u);
    EXPECT_THROW(placeThreads(pol, 4, 0, 0), std::invalid_argument);
}

TEST(Scheduler, ConservationOfThreads)
{
    for (std::size_t n : {0u, 1u, 4u, 8u, 16u}) {
        PlacementPolicy pol{3.0, 1.5, 2.0};
        Placement p = placeThreads(pol, n, 4, 4);
        EXPECT_EQ(p.threadsOn(ClusterId::kBig) +
                      p.threadsOn(ClusterId::kLittle),
                  n);
        std::size_t from_cores = 0;
        for (std::size_t c : p.big_core_threads) {
            from_cores += c;
        }
        for (std::size_t c : p.little_core_threads) {
            from_cores += c;
        }
        EXPECT_EQ(from_cores, n);
    }
}

TEST(Scheduler, RoundRobinSpreadsEverywhere)
{
    PlacementPolicy pol = roundRobinPolicy(8, 4, 4);
    Placement p = placeThreads(pol, 8, 4, 4);
    EXPECT_EQ(p.threadsOn(ClusterId::kBig), 4u);
    EXPECT_EQ(p.busyCores(ClusterId::kBig), 4u);
    EXPECT_EQ(p.busyCores(ClusterId::kLittle), 4u);
}

TEST(Scheduler, SpareComputeFormula)
{
    // 4 cores on, 2 busy with 1 thread each: SC = 2 - (2 - 4) = 4.
    PlacementPolicy pol{2.0, 1.0, 1.0};
    Placement p = placeThreads(pol, 2, 4, 4);
    EXPECT_DOUBLE_EQ(spareCompute(p, ClusterId::kBig, 4), 4.0);
    // Overloaded: 8 threads on 2 big cores on: SC = 0 - (8-2) = -6.
    PlacementPolicy pol2{8.0, 4.0, 1.0};
    Placement p2 = placeThreads(pol2, 8, 2, 4);
    EXPECT_DOUBLE_EQ(spareCompute(p2, ClusterId::kBig, 2), -6.0);
}

TEST(Sensors, PowerUpdatesAtSensorPeriod)
{
    SensorConfig scfg = cfg.sensors;
    scfg.power_noise = 0.0;
    scfg.temp_noise = 0.0;
    Sensors s(scfg, /*ambient=*/25.0, 7);
    // Before a full 260 ms window, the reading stays at initial 0.
    for (int i = 0; i < 200; ++i) {
        s.step(1e-3, 4.0, 0.2, 60.0);
    }
    EXPECT_DOUBLE_EQ(s.powerBig(), 0.0);
    for (int i = 0; i < 70; ++i) {
        s.step(1e-3, 4.0, 0.2, 60.0);
    }
    EXPECT_NEAR(s.powerBig(), 4.0, 1e-9);
    EXPECT_NEAR(s.powerLittle(), 0.2, 1e-9);
}

TEST(Sensors, WindowAveragesPower)
{
    SensorConfig scfg = cfg.sensors;
    scfg.power_noise = 0.0;
    Sensors s(scfg, /*ambient=*/25.0, 7);
    // Half window at 2 W, half at 6 W -> average 4 W.
    for (int i = 0; i < 130; ++i) {
        s.step(1e-3, 2.0, 0.1, 50.0);
    }
    for (int i = 0; i < 140; ++i) {
        s.step(1e-3, 6.0, 0.3, 50.0);
    }
    EXPECT_NEAR(s.powerBig(), 4.0, 0.25);
}

TEST(Sensors, ClampsPhysicallyImpossibleReadings)
{
    // Exaggerated noise makes raw windows go negative and temperature
    // samples undershoot ambient; the published readings must stay
    // physical and the clamps must be counted.
    SensorConfig scfg = cfg.sensors;
    scfg.power_noise = 1.0;
    scfg.temp_noise = 40.0;
    Sensors s(scfg, /*ambient=*/25.0, 7);
    for (int i = 0; i < 20000; ++i) {
        s.step(1e-3, 0.05, 0.01, 26.0);
        EXPECT_GE(s.powerBig(), 0.0);
        EXPECT_GE(s.powerLittle(), 0.0);
        EXPECT_GE(s.temperature(), 25.0);
    }
    EXPECT_GT(s.clampedPowerCount(), 0u);
    EXPECT_GT(s.clampedTempCount(), 0u);
}

TEST(Tmu, PowerEmergencyCapsFrequency)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    Tmu tmu(cfg.tmu, cfg, big, little);
    // Sustained 5 W on the big cluster (over 1.15 * 3.3).
    EmergencyCaps caps;
    for (int i = 0; i < 1200; ++i) {
        caps = tmu.step(1e-3, 60.0, 5.0, 0.1, 2.0, 1.4);
    }
    EXPECT_TRUE(caps.active);
    EXPECT_LT(caps.freq_cap_big, 2.0);
    EXPECT_GT(tmu.actionCount(), 0u);
}

TEST(Tmu, ThermalEmergencyActsFasterAndHotplugs)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    Tmu tmu(cfg.tmu, cfg, big, little);
    EmergencyCaps caps;
    for (int i = 0; i < 500; ++i) {
        caps = tmu.step(1e-3, 97.0, 2.0, 0.1, 2.0, 1.4);
    }
    EXPECT_TRUE(caps.active);
    EXPECT_LT(caps.max_big_cores, 4u);
    EXPECT_LT(caps.freq_cap_big, 1.0);
}

TEST(Tmu, ReleasesWithHysteresis)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    Tmu tmu(cfg.tmu, cfg, big, little);
    for (int i = 0; i < 1000; ++i) {
        tmu.step(1e-3, 60.0, 5.0, 0.1, 2.0, 1.4);
    }
    EXPECT_TRUE(tmu.caps().active);
    // Calm conditions: caps recover step by step, but only after the
    // cooldown and one release period per level (reluctant recovery).
    EmergencyCaps caps;
    // Full recovery from the deep cap needs cooldown (5 s) plus one
    // release period (0.8 s) per DVFS level.
    for (int i = 0; i < 25000; ++i) {
        caps = tmu.step(1e-3, 50.0, 1.0, 0.05, caps.freq_cap_big, 1.4);
    }
    EXPECT_FALSE(caps.active);
    EXPECT_GT(tmu.emergencyTime(), 0.0);
}

}  // namespace
}  // namespace yukta::platform
