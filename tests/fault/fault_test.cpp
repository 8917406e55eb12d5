// Fault plans, the deterministic injector, and end-to-end robustness:
// same plan => bit-identical records at any worker count, and the
// supervised stack strictly beats the unsupervised one on constraint
// violation under every injected-fault scenario.
// yukta-lint: allow-file(sensor-construction) tests forge readings
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "platform/apps.h"
#include "runner/sweep.h"

namespace yukta::fault {
namespace {

using platform::HardwareInputs;
using platform::PlacementPolicy;
using platform::SensorReadings;

TEST(FaultPlan, ParsesTheDocumentedGrammar)
{
    FaultPlan plan = FaultPlan::parse(
        "seed=7;p_big:nan@20+10;temp:stuck@40+15;act:ignore@60+5");
    EXPECT_EQ(plan.seed, 7u);
    ASSERT_EQ(plan.windows.size(), 3u);
    EXPECT_EQ(plan.windows[0].target, FaultTarget::kPowerBig);
    EXPECT_EQ(plan.windows[0].kind, FaultKind::kNan);
    EXPECT_EQ(plan.windows[0].start, 20.0);
    EXPECT_EQ(plan.windows[0].duration, 10.0);
    EXPECT_EQ(plan.windows[1].target, FaultTarget::kTemp);
    EXPECT_EQ(plan.windows[1].kind, FaultKind::kStuck);
    EXPECT_EQ(plan.windows[2].target, FaultTarget::kActuator);
    EXPECT_EQ(plan.windows[2].kind, FaultKind::kActIgnore);
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan)
{
    FaultPlan plan = FaultPlan::parse("");
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultPlan, CanonicalRoundTripIsStable)
{
    const std::string spec =
        "seed=3;p_little:spike@10+5*6.5;tick:double@30+10";
    FaultPlan plan = FaultPlan::parse(spec);
    const std::string canon = plan.canonical();
    EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("bogus:nan@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:bogus@0+1"),
                 std::invalid_argument);
    // Kind/target class mismatches.
    EXPECT_THROW(FaultPlan::parse("p_big:ignore@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("act:nan@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("tick:drop@0+1"),
                 std::invalid_argument);
    // Bad windows and magnitudes.
    EXPECT_THROW(FaultPlan::parse("p_big:nan@0+0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@-1+5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("act:partial@0+5*1.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan"), std::invalid_argument);
}

TEST(FaultPlan, RejectsNumbersOutsidePlainDecimalNotation)
{
    // strtod-isms that must NOT pass as schedule times: non-finite
    // literals, hex floats, overflow to infinity, and whitespace.
    EXPECT_THROW(FaultPlan::parse("p_big:nan@nan+6"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@30+inf"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@30+infinity"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@0x10+6"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@30+0x2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@1e999+6"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:nan@ 30+6"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:spike@0+10*inf"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:spike@0+10*0x8"),
                 std::invalid_argument);
    // Exponent notation is still plain decimal and stays accepted.
    EXPECT_EQ(FaultPlan::parse("p_big:nan@1e1+6").windows[0].start, 10.0);
}

TEST(FaultPlan, RejectsEmptyClausesAndMalformedSeeds)
{
    EXPECT_THROW(FaultPlan::parse(";p_big:nan@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=1;;p_big:nan@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=-1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed= 1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=0x10"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed="), std::invalid_argument);
    // The empty spec (no fault plan at all) stays valid, as does a
    // trailing separator-free multi-clause plan.
    EXPECT_TRUE(FaultPlan::parse("").windows.empty());
    EXPECT_EQ(
        FaultPlan::parse("seed=2;p_big:nan@0+1;act:ignore@2+1").windows
            .size(),
        2u);
}

SensorReadings
cleanObs(double base)
{
    SensorReadings obs;
    obs.p_big = 2.0 + base;
    obs.p_little = 0.2 + base;
    obs.temp = 55.0 + base;
    obs.instr_big = 100.0 + base;
    obs.instr_little = 25.0 + base;
    return obs;
}

TEST(FaultInjector, NanInfAndDropCorruptOnlyTheTarget)
{
    FaultInjector inj(FaultPlan::parse(
        "p_big:nan@0+10;temp:inf@0+10;p_little:drop@0+10"));
    SensorReadings out = inj.corruptReadings(1.0, cleanObs(0.0));
    EXPECT_TRUE(std::isnan(out.p_big));
    EXPECT_TRUE(std::isinf(out.temp));
    EXPECT_EQ(out.p_little, 0.0);
    EXPECT_EQ(out.instr_big, 100.0);
    EXPECT_EQ(out.instr_little, 25.0);
    EXPECT_EQ(inj.stats().corrupted_ticks, 1u);
    EXPECT_EQ(inj.stats().corrupted_fields, 3u);
}

TEST(FaultInjector, StuckLatchesTheWindowEntryValue)
{
    FaultInjector inj(FaultPlan::parse("p_big:stuck@5+10"));
    SensorReadings before = inj.corruptReadings(0.0, cleanObs(0.0));
    EXPECT_EQ(before.p_big, 2.0);
    SensorReadings entry = inj.corruptReadings(5.0, cleanObs(1.0));
    EXPECT_EQ(entry.p_big, 3.0);
    SensorReadings later = inj.corruptReadings(10.0, cleanObs(7.0));
    EXPECT_EQ(later.p_big, 3.0);  // still the entry value
    EXPECT_EQ(later.temp, 62.0);  // other fields live
    SensorReadings after = inj.corruptReadings(16.0, cleanObs(9.0));
    EXPECT_EQ(after.p_big, 11.0);
}

TEST(FaultInjector, FreezeAllStalesTheWholeSnapshot)
{
    FaultInjector inj(FaultPlan::parse("all:freeze@5+10"));
    (void)inj.corruptReadings(5.0, cleanObs(1.0));
    SensorReadings later = inj.corruptReadings(10.0, cleanObs(4.0));
    EXPECT_EQ(later.p_big, 3.0);
    EXPECT_EQ(later.temp, 56.0);
    EXPECT_EQ(later.instr_big, 101.0);
    EXPECT_EQ(later.instr_little, 26.0);
}

TEST(FaultInjector, SpikeScalesByMagnitudeWithSeededJitter)
{
    FaultInjector inj(FaultPlan::parse("seed=9;p_big:spike@0+10*8"));
    SensorReadings out = inj.corruptReadings(1.0, cleanObs(0.0));
    // mag 8 with +-25% jitter: 2.0 * 8 * [0.75, 1.25].
    EXPECT_GE(out.p_big, 2.0 * 8.0 * 0.74);
    EXPECT_LE(out.p_big, 2.0 * 8.0 * 1.26);

    // Identical plans replay identical jitter sequences.
    FaultInjector a(FaultPlan::parse("seed=9;p_big:spike@0+10*8"));
    FaultInjector b(FaultPlan::parse("seed=9;p_big:spike@0+10*8"));
    for (int i = 0; i < 8; ++i) {
        const double t = 0.5 * i;
        SensorReadings ra = a.corruptReadings(t, cleanObs(0.1 * i));
        SensorReadings rb = b.corruptReadings(t, cleanObs(0.1 * i));
        EXPECT_EQ(ra.p_big, rb.p_big);
    }
}

TEST(FaultInjector, ActuatorIgnoreKeepsThePreviousCommand)
{
    FaultInjector inj(FaultPlan::parse("act:ignore@0+10"));
    HardwareInputs prev;
    prev.big_cores = 1;
    prev.freq_big = 1.0;
    HardwareInputs cmd;
    cmd.big_cores = 4;
    cmd.freq_big = 2.0;
    HardwareInputs got = inj.corruptHardware(1.0, prev, cmd);
    EXPECT_EQ(got.big_cores, 1u);
    EXPECT_EQ(got.freq_big, 1.0);
    EXPECT_GE(inj.stats().actuator_faults, 1u);

    HardwareInputs clean = inj.corruptHardware(12.0, prev, cmd);
    EXPECT_EQ(clean.big_cores, 4u);
}

TEST(FaultInjector, ActuatorPartialBlendsTowardTheCommand)
{
    FaultInjector inj(FaultPlan::parse("act:partial@0+10*0.5"));
    HardwareInputs prev;
    prev.freq_big = 1.0;
    prev.freq_little = 0.8;
    HardwareInputs cmd = prev;
    cmd.freq_big = 2.0;
    HardwareInputs got = inj.corruptHardware(1.0, prev, cmd);
    EXPECT_NEAR(got.freq_big, 1.5, 1e-12);
    EXPECT_NEAR(got.freq_little, 0.8, 1e-12);
}

TEST(FaultInjector, QuantStuckFreezesOnlyDvfs)
{
    FaultInjector inj(FaultPlan::parse("act:quantstuck@0+10"));
    HardwareInputs prev;
    prev.big_cores = 1;
    prev.freq_big = 1.0;
    HardwareInputs cmd;
    cmd.big_cores = 4;
    cmd.freq_big = 2.0;
    HardwareInputs got = inj.corruptHardware(1.0, prev, cmd);
    EXPECT_EQ(got.big_cores, 4u);   // core command applies
    EXPECT_EQ(got.freq_big, 1.0);   // DVFS write ignored
}

TEST(FaultInjector, TimingFaultsDropTicks)
{
    FaultInjector miss(FaultPlan::parse("tick:miss@5+3"));
    EXPECT_FALSE(miss.dropTick(0.0, 0));
    EXPECT_TRUE(miss.dropTick(5.0, 10));
    EXPECT_TRUE(miss.dropTick(7.5, 15));
    EXPECT_FALSE(miss.dropTick(8.0, 16));
    EXPECT_EQ(miss.stats().dropped_ticks, 2u);

    FaultInjector dbl(FaultPlan::parse("tick:double@0+10"));
    EXPECT_FALSE(dbl.dropTick(0.0, 0));
    EXPECT_TRUE(dbl.dropTick(0.5, 1));
    EXPECT_FALSE(dbl.dropTick(1.0, 2));
    EXPECT_TRUE(dbl.dropTick(1.5, 3));
}

// ---------------------------------------------------------------- //
// End-to-end: injector + supervisor through the sweep engine.      //
// ---------------------------------------------------------------- //

core::Artifacts
heuristicArtifacts()
{
    core::Artifacts art;
    art.cfg = platform::BoardConfig::odroidXu3();
    return art;
}

std::string
eventLog(const controllers::SupervisorReport& report)
{
    std::ostringstream os;
    for (const auto& e : report.events) {
        os << e.period << "|" << e.time << "|"
           << controllers::supervisorModeName(e.from) << ">"
           << controllers::supervisorModeName(e.to) << "|" << e.reason
           << ";";
    }
    return os.str();
}

TEST(FaultRunner, RecordsAndEventLogsAreWorkerCountInvariant)
{
    const core::Artifacts art = heuristicArtifacts();
    runner::SweepSpec spec;
    spec.schemes = {core::Scheme::kDecoupledHeuristic,
                    core::Scheme::kCoordinatedHeuristic};
    spec.workloads = {"swaptions"};
    spec.seeds = {1, 2};
    spec.max_seconds = 30.0;
    spec.fault_plan = "seed=11;p_big:drop@5+10;temp:nan@8+6";
    spec.supervised = true;

    runner::RunnerOptions options;
    options.workers = 1;
    runner::SweepResult serial = runner::runSweep(art, spec, options);
    options.workers = 4;
    runner::SweepResult parallel = runner::runSweep(art, spec, options);

    ASSERT_EQ(serial.records.size(), 4u);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        const auto& a = serial.records[i];
        const auto& b = parallel.records[i];
        EXPECT_EQ(a.metrics.exd, b.metrics.exd);
        EXPECT_EQ(a.metrics.energy, b.metrics.energy);
        EXPECT_EQ(a.metrics.violation_time, b.metrics.violation_time);
        EXPECT_EQ(a.metrics.faults.corrupted_fields,
                  b.metrics.faults.corrupted_fields);
        EXPECT_EQ(eventLog(a.metrics.supervisor),
                  eventLog(b.metrics.supervisor));
        EXPECT_FALSE(eventLog(a.metrics.supervisor).empty());
    }
}

TEST(FaultRunner, SupervisedStrictlyBeatsUnsupervisedUnderDropout)
{
    const core::Artifacts art = heuristicArtifacts();
    const FaultPlan plan =
        FaultPlan::parse("seed=15;p_big:drop@5+30;p_little:drop@5+30");
    platform::Workload workload(platform::AppCatalog::get("swaptions"));

    auto unsup = core::makeSystem(core::Scheme::kDecoupledHeuristic, art,
                                  workload, 1);
    unsup.attachFaultInjector(plan);
    const auto mu = unsup.run(60.0);

    auto sup = core::makeSystem(core::Scheme::kDecoupledHeuristic, art,
                                workload, 1);
    sup.attachFaultInjector(plan);
    sup.enableSupervisor();
    const auto ms = sup.run(60.0);

    // The decoupled baseline runs at max settings and cannot see the
    // dropout (0 W compares as "under the cap"), so it violates; the
    // supervisor detects the implausible floor and degrades.
    EXPECT_GT(mu.violation_time, 0.0);
    EXPECT_LT(ms.violation_time, mu.violation_time);
    EXPECT_TRUE(ms.supervised);
    EXPECT_GT(ms.supervisor.invalid_ticks, 0);
    EXPECT_GT(ms.supervisor.timeDegraded(), 0.0);
}

TEST(FaultRunner, SupervisedStackNeverFeedsNaNToTheBoard)
{
    const core::Artifacts art = heuristicArtifacts();
    const FaultPlan plan = FaultPlan::parse(
        "seed=16;all:freeze@5+5;p_big:nan@12+10;temp:nan@14+8;"
        "perf_big:nan@20+5;act:partial@10+20*0.5");
    platform::Workload workload(platform::AppCatalog::get("swaptions"));
    auto sys = core::makeSystem(core::Scheme::kCoordinatedHeuristic, art,
                                workload, 1);
    sys.attachFaultInjector(plan);
    sys.enableSupervisor();
    const auto m = sys.run(40.0);
    EXPECT_EQ(sys.board().rejectedInputCount(), 0u);
    EXPECT_GT(m.faults.corrupted_ticks, 0u);
}

TEST(FaultRunner, TimingFaultsAreCountedOnBothSides)
{
    const core::Artifacts art = heuristicArtifacts();
    const FaultPlan plan = FaultPlan::parse("seed=17;tick:miss@5+4");
    platform::Workload workload(platform::AppCatalog::get("swaptions"));
    auto sys = core::makeSystem(core::Scheme::kCoordinatedHeuristic, art,
                                workload, 1);
    sys.attachFaultInjector(plan);
    sys.enableSupervisor();
    const auto m = sys.run(30.0);
    EXPECT_EQ(m.faults.dropped_ticks, 8u);  // 4 s / 0.5 s ticks
    EXPECT_EQ(m.supervisor.skipped_ticks,
              static_cast<long>(m.faults.dropped_ticks));
}

TEST(FaultRunner, MalformedPlanFailsOnlyItsOwnRun)
{
    const core::Artifacts art = heuristicArtifacts();
    std::vector<runner::RunSpec> runs(2);
    runs[0].scheme = core::Scheme::kCoordinatedHeuristic;
    runs[0].workload = "swaptions";
    runs[0].max_seconds = 10.0;
    runs[1] = runs[0];
    runs[1].fault_plan = "p_big:bogus@0+1";

    auto result = runner::runAll(art, runs);
    EXPECT_EQ(result.records[0].status,
              runner::TaskOutcome::Status::kOk);
    EXPECT_EQ(result.records[1].status,
              runner::TaskOutcome::Status::kError);
    EXPECT_EQ(result.records[1].error_type, "std::invalid_argument");
    EXPECT_NE(result.records[1].error.find("FaultPlan"),
              std::string::npos);
}

/** @return the parse error text for @p spec ("" when it parses). */
std::string
parseError(const std::string& spec)
{
    try {
        (void)FaultPlan::parse(spec);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(FaultPlan, ParsesBoardMachineTargets)
{
    FaultPlan plan = FaultPlan::parse(
        "seed=9;board3:crash@10+5;board0:degrade@2+8*0.25;"
        "board12:hang@4+2*1");
    EXPECT_EQ(plan.seed, 9u);
    ASSERT_EQ(plan.windows.size(), 3u);
    EXPECT_EQ(plan.windows[0].target, FaultTarget::kBoard);
    EXPECT_EQ(plan.windows[0].kind, FaultKind::kBoardCrash);
    EXPECT_EQ(plan.windows[0].board, 3);
    EXPECT_EQ(plan.windows[0].magnitude, 0.0);  // queue dropped
    EXPECT_EQ(plan.windows[1].kind, FaultKind::kBoardDegrade);
    EXPECT_EQ(plan.windows[1].board, 0);
    EXPECT_EQ(plan.windows[1].magnitude, 0.25);
    EXPECT_EQ(plan.windows[2].kind, FaultKind::kShardHang);
    EXPECT_EQ(plan.windows[2].board, 12);
    EXPECT_EQ(plan.windows[2].magnitude, 1.0);  // persistent
}

TEST(FaultPlan, BoardCanonicalRoundTripIsStable)
{
    const std::string spec =
        "seed=5;board2:crash@10+5*1;board0:hang@1+2";
    FaultPlan plan = FaultPlan::parse(spec);
    const std::string canon = plan.canonical();
    // The board index survives the round trip.
    EXPECT_NE(canon.find("board2:crash"), std::string::npos);
    EXPECT_NE(canon.find("board0:hang"), std::string::npos);
    EXPECT_EQ(FaultPlan::parse(canon).canonical(), canon);
}

TEST(FaultPlan, RejectsMalformedBoardClauses)
{
    // Bare namespace, malformed/oversized indices.
    EXPECT_THROW(FaultPlan::parse("board:crash@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("boardx:crash@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("board1x:crash@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("board1234567:crash@0+1"),
                 std::invalid_argument);
    // Machine kinds only apply to board targets and vice versa.
    EXPECT_THROW(FaultPlan::parse("board1:nan@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("p_big:crash@0+1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("act:hang@0+1"),
                 std::invalid_argument);
    // Degrade magnitude is the remaining capacity fraction.
    EXPECT_THROW(FaultPlan::parse("board1:degrade@0+1*1.5"),
                 std::invalid_argument);
    // A positive crash/hang magnitude is a mode flag and stays legal.
    EXPECT_EQ(FaultPlan::parse("board1:crash@0+1*2").windows[0].magnitude,
              2.0);
}

TEST(FaultPlan, ErrorsNameByteOffsetAndClause)
{
    // "seed=3;" occupies bytes 0-6; the bad clause starts at byte 7.
    const std::string err =
        parseError("seed=3;board1:crash@5+-2;board0:hang@1+1");
    EXPECT_NE(err.find("at byte 7"), std::string::npos) << err;
    EXPECT_NE(err.find("clause 'board1:crash@5+-2'"), std::string::npos)
        << err;

    // First clause errors report byte 0.
    EXPECT_NE(parseError("bogus:nan@0+1").find("at byte 0"),
              std::string::npos);

    // Offsets track clause starts, not error positions: the third
    // clause of this spec begins at byte 21.
    const std::string err2 =
        parseError("seed=3;p_big:nan@0+1;boardx:crash@0+1");
    EXPECT_NE(err2.find("at byte 21"), std::string::npos) << err2;
    EXPECT_NE(err2.find("boardx"), std::string::npos) << err2;
}

}  // namespace
}  // namespace yukta::fault
