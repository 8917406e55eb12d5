#include "platform/board.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/rollup.h"
#include "platform/apps.h"

namespace yukta::platform {
namespace {

Board
makeBoard(const std::string& app = "blackscholes")
{
    return Board(BoardConfig::odroidXu3(), Workload(AppCatalog::get(app)), 3);
}

/** The mixes whose plant bits the tests below pin. */
const std::vector<std::vector<std::string>> kPinnedMixes = {
    {"x264"}, {"streamcluster"}, {"bodytrack", "canneal"}, {"milc", "x264"}};

Board
makeMixBoard(const std::vector<std::string>& names)
{
    std::vector<AppModel> apps;
    for (const std::string& n : names) {
        apps.push_back(AppCatalog::get(n));
    }
    return Board(BoardConfig::odroidXu3(), Workload(std::move(apps)), 7);
}

/**
 * Applies period @p k's inputs: a schedule that sweeps core counts,
 * both frequency grids and the placement knobs, so the step table is
 * rebuilt under many (placement, inputs, runnable set) combinations.
 */
void
applyPeriodInputs(Board& b, int k)
{
    HardwareInputs in;
    in.big_cores = static_cast<std::size_t>(1 + k % 4);
    in.little_cores = static_cast<std::size_t>(1 + (k / 2) % 4);
    in.freq_big = 0.6 + 0.1 * (k % 15);
    in.freq_little = 0.4 + 0.1 * (k % 10);
    b.applyHardwareInputs(in);
    b.applyPlacementPolicy({static_cast<double>(k % 9), 1.0 + k % 3,
                            1.0 + k % 2});
}

/** The plant outputs whose bits the tests compare. */
std::vector<double>
plantOutputs(const Board& b)
{
    return {b.energy(), b.perfCounters().instr_big,
            b.perfCounters().instr_little, b.trueTemperature()};
}

void
expectSameBits(const Board& a, const Board& b)
{
    const std::vector<double> x = plantOutputs(a);
    const std::vector<double> y = plantOutputs(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                  std::bit_cast<std::uint64_t>(y[i]))
            << "output " << i << " at t=" << a.elapsed();
    }
}

TEST(Board, TimeAndEnergyAdvance)
{
    Board b = makeBoard();
    b.run(1.0);
    EXPECT_NEAR(b.elapsed(), 1.0, 1e-9);
    EXPECT_GT(b.energy(), 0.0);
    EXPECT_GT(b.energyDelay(), 0.0);
    EXPECT_FALSE(b.done());
}

TEST(Board, HardwareInputsQuantizedAndClamped)
{
    Board b = makeBoard();
    HardwareInputs in;
    in.big_cores = 9;
    in.little_cores = 0;
    in.freq_big = 1.73;
    in.freq_little = 5.0;
    b.applyHardwareInputs(in);
    const HardwareInputs& req = b.requestedHardware();
    EXPECT_EQ(req.big_cores, 4u);
    EXPECT_EQ(req.little_cores, 1u);
    EXPECT_DOUBLE_EQ(req.freq_big, 1.7);
    EXPECT_DOUBLE_EQ(req.freq_little, 1.4);
}

TEST(Board, LowerFrequencyLowersPowerAndPerformance)
{
    Board fast = makeBoard();
    Board slow = makeBoard();
    HardwareInputs in;
    in.freq_big = 2.0;
    in.freq_little = 1.4;
    fast.applyHardwareInputs(in);
    in.freq_big = 0.6;
    in.freq_little = 0.4;
    slow.applyHardwareInputs(in);
    fast.run(5.0);
    slow.run(5.0);
    EXPECT_GT(fast.energy(), slow.energy());
    EXPECT_GT(fast.perfCounters().total(), slow.perfCounters().total());
}

TEST(Board, PerfScalesWithThreadPlacement)
{
    // All 8 threads on the big cluster vs all on little: big wins.
    Board big_all = makeBoard("gamess");
    Board little_all = makeBoard("gamess");
    big_all.applyPlacementPolicy({8.0, 2.0, 1.0});
    little_all.applyPlacementPolicy({0.0, 1.0, 2.0});
    big_all.run(5.0);
    little_all.run(5.0);
    EXPECT_GT(big_all.perfCounters().instr_big, 1.0);
    EXPECT_GT(little_all.perfCounters().instr_little, 1.0);
    EXPECT_GT(big_all.perfCounters().total(),
              1.5 * little_all.perfCounters().total());
}

TEST(Board, SensorsLagTruth)
{
    Board b = makeBoard();
    b.run(0.1);  // less than one sensor window
    EXPECT_DOUBLE_EQ(b.sensedPowerBig(), 0.0);
    b.run(0.3);
    EXPECT_GT(b.sensedPowerBig(), 0.0);
}

TEST(Board, EmergencyEngagesAtMaxSettings)
{
    // Full throttle on a compute-heavy app must trip the power
    // emergency within a couple of seconds (that is what the
    // Decoupled heuristic leans on).
    Board b = makeBoard("gamess");
    HardwareInputs in;
    in.freq_big = 2.0;
    in.freq_little = 1.4;
    b.applyHardwareInputs(in);
    b.applyPlacementPolicy({8.0, 2.0, 1.0});
    b.run(4.0);
    EXPECT_GT(b.emergencyTime(), 0.0);
    // The applied frequency should have been capped below the request.
    EXPECT_LT(b.appliedHardware().freq_big, 2.0);
}

TEST(Board, SafeOperatingPointStaysCalm)
{
    Board b = makeBoard("streamcluster");
    HardwareInputs in;
    in.freq_big = 0.8;
    in.freq_little = 0.6;
    b.applyHardwareInputs(in);
    b.run(5.0);
    EXPECT_DOUBLE_EQ(b.emergencyTime(), 0.0);
    EXPECT_LT(b.truePowerBig(), b.config().power_limit_big);
}

TEST(Board, WorkloadRunsToCompletion)
{
    // Tiny custom app finishes quickly.
    AppModel tiny;
    tiny.name = "tiny";
    tiny.ipc_big = 2.0;
    tiny.ipc_little = 1.0;
    AppPhase ph;
    ph.num_threads = 2;
    ph.work_per_thread = 1.0;  // 1 giga-instruction
    tiny.phases = {ph};
    Board b(BoardConfig::odroidXu3(), Workload(tiny), 3);
    b.run(60.0);
    EXPECT_TRUE(b.done());
    double t_done = b.elapsed();
    // run() past completion is a no-op.
    b.run(1.0);
    EXPECT_DOUBLE_EQ(b.elapsed(), t_done);
}

TEST(Board, ThreadCountTracksPhases)
{
    Board b = makeBoard("blackscholes");
    EXPECT_EQ(b.threadsRunning(), 1u);  // serial phase
    // Serial phase (25 G instr) completes in well under a minute at
    // full speed.
    b.run(30.0);
    EXPECT_EQ(b.threadsRunning(), 8u);
}

TEST(Board, SpareComputeReflectsPlacement)
{
    Board b = makeBoard("gamess");
    b.applyPlacementPolicy({2.0, 1.0, 1.0});
    b.run(0.01);
    // 2 threads big on 4 cores: SC_big = 2 - (2-4) = 4.
    EXPECT_DOUBLE_EQ(b.spareCompute(ClusterId::kBig), 4.0);
}

TEST(Board, TraceRecordsSamples)
{
    Board b = makeBoard();
    b.enableTrace(0.1);
    b.run(1.0);
    ASSERT_GE(b.trace().size(), 9u);
    const TraceSample& s = b.trace().back();
    EXPECT_GT(s.time, 0.0);
    EXPECT_GT(s.p_big + s.p_little, 0.0);
    EXPECT_GT(s.temp, 20.0);
    EXPECT_GE(s.bips, 0.0);
}

TEST(Board, DeterministicForSameSeed)
{
    Board a(BoardConfig::odroidXu3(),
            Workload(AppCatalog::get("bodytrack")), 42);
    Board b(BoardConfig::odroidXu3(),
            Workload(AppCatalog::get("bodytrack")), 42);
    a.run(3.0);
    b.run(3.0);
    EXPECT_DOUBLE_EQ(a.energy(), b.energy());
    EXPECT_DOUBLE_EQ(a.perfCounters().total(), b.perfCounters().total());
    EXPECT_DOUBLE_EQ(a.sensedPowerBig(), b.sensedPowerBig());
}

TEST(Board, MemoryBoundAppGainsLessFromFrequency)
{
    // Two threads on two big cores keeps both apps inside the power
    // envelope, so the TMU never confounds the comparison.
    auto bips_at = [](const std::string& app, double f) {
        Board b(BoardConfig::odroidXu3(),
                Workload(AppCatalog::getWithThreads(app, 2)), 3);
        HardwareInputs in;
        in.big_cores = 2;
        in.little_cores = 1;
        in.freq_big = f;
        in.freq_little = 0.4;
        b.applyHardwareInputs(in);
        b.applyPlacementPolicy({2.0, 1.0, 1.0});
        b.run(3.0);
        return b.perfCounters().total() / b.elapsed();
    };
    double gamess_gain = bips_at("gamess", 1.6) / bips_at("gamess", 0.8);
    double mcf_gain = bips_at("mcf", 1.6) / bips_at("mcf", 0.8);
    EXPECT_GT(gamess_gain, mcf_gain + 0.2);
}

TEST(Board, PlantBitsArePinned)
{
    // Every plant output of every period, for mixes that cover serial
    // and barriered phases, SPEC copies completing one by one, and two
    // instances sharing the board. Any change to a floating-point
    // expression's operands or order, or to when the step table is
    // rebuilt, moves this hash.
    std::string bits;
    for (const auto& mix : kPinnedMixes) {
        Board b = makeMixBoard(mix);
        // 800 periods of 0.5 s is 400 s. elapsed() sums 1 ms steps,
        // so it is not a safe loop bound.
        for (int k = 0; k < 800 && !b.done(); ++k) {
            applyPeriodInputs(b, k);
            b.run(0.5);
            for (double x : plantOutputs(b)) {
                char raw[sizeof x];
                std::memcpy(raw, &x, sizeof x);
                bits.append(raw, sizeof x);
            }
        }
    }
    EXPECT_EQ(obs::fnv1a(bits), 0x9b5f6f6dbecbf11eull);
}

TEST(Board, CheckpointRoundTripIsBitExact)
{
    for (const auto& mix : {kPinnedMixes[3], kPinnedMixes[2]}) {
        Board live = makeMixBoard(mix);
        int k = 0;
        for (int at : {37, 301, 523}) {
            for (; k < at && !live.done(); ++k) {
                applyPeriodInputs(live, k);
                live.run(0.5);
            }
            if (mix == kPinnedMixes[3] && at == 523) {
                // A checkpoint with a partly finished runnable set.
                EXPECT_EQ(live.threadsRunning(), 15u);
            }
            obs::StateWriter w;
            live.state(w);
            Board restored = makeMixBoard(mix);
            obs::StateReader r(w.take());
            restored.state(r);
            ASSERT_TRUE(r.atEnd());

            // Step before any apply*: an input change would rebuild
            // the derived state and hide a restore that did not.
            Board copy = live;
            copy.run(0.25);
            restored.run(0.25);
            expectSameBits(copy, restored);
            for (int j = k; j < k + 20; ++j) {
                applyPeriodInputs(copy, j);
                applyPeriodInputs(restored, j);
                copy.run(0.5);
                restored.run(0.5);
                expectSameBits(copy, restored);
            }
        }
    }
}

}  // namespace
}  // namespace yukta::platform
