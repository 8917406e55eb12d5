// Fleet simulator invariants: deterministic arrivals, the admission
// capacity bound, cluster target shaping, the split board period the
// benchmark's replica steps through, and the two end-to-end
// properties the subsystem exists for -- bit-identical results for
// any worker count, and admission strictly reducing SLO-violation
// time under overload.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "controllers/batch_runtime.h"
#include "controllers/multilayer.h"
#include "core/schemes.h"
#include "fault/plan.h"
#include "fleet/admission.h"
#include "fleet/arrivals.h"
#include "fleet/artifacts.h"
#include "fleet/cluster.h"
#include "fleet/fleet.h"
#include "obs/stateio.h"
#include "platform/apps.h"
#include "platform/board.h"

namespace {

using yukta::fleet::AdmissionConfig;
using yukta::fleet::AdmissionController;
using yukta::fleet::ArrivalConfig;
using yukta::fleet::ArrivalGenerator;
using yukta::fleet::BoardTelemetry;
using yukta::fleet::ClusterConfig;
using yukta::fleet::ClusterController;
using yukta::fleet::FleetConfig;
using yukta::fleet::FleetMetrics;
using yukta::fleet::FleetSim;
using yukta::fleet::Request;

TEST(Arrivals, SameKeyYieldsIdenticalRequestsRegardlessOfCallOrder)
{
    ArrivalConfig cfg;
    cfg.profile.base_rate = 6.0;
    const ArrivalGenerator gen(cfg, 42);

    const auto first = gen.epochArrivals(3, 7, 3.5, 0.5);
    // Query other (board, epoch) pairs in between: the generator is
    // stateless, so they must not perturb the original stream.
    (void)gen.epochArrivals(0, 0, 0.0, 0.5);
    (void)gen.epochArrivals(9, 7, 3.5, 0.5);
    const auto again = gen.epochArrivals(3, 7, 3.5, 0.5);

    ASSERT_EQ(first.size(), again.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].arrival_time, again[i].arrival_time);
        EXPECT_EQ(first[i].demand_gi, again[i].demand_gi);
        EXPECT_EQ(first[i].origin, again[i].origin);
    }
}

TEST(Arrivals, RequestsAreWellFormedAndInsideTheEpoch)
{
    ArrivalConfig cfg;
    cfg.profile.base_rate = 10.0;
    cfg.profile.amplitude = 0.5;
    cfg.profile.period_seconds = 30.0;
    const ArrivalGenerator gen(cfg, 7);

    int total = 0;
    for (int epoch = 0; epoch < 40; ++epoch) {
        const double t0 = 0.5 * epoch;
        for (int board = 0; board < 4; ++board) {
            for (const Request& r :
                 gen.epochArrivals(board, epoch, t0, 0.5)) {
                EXPECT_GE(r.arrival_time, t0);
                EXPECT_LT(r.arrival_time, t0 + 0.5);
                EXPECT_GT(r.demand_gi, 0.0);
                EXPECT_EQ(r.remaining_gi, r.demand_gi);
                EXPECT_EQ(r.origin, board);
                ++total;
            }
        }
    }
    // Mean is 10/s * 4 boards * 20 s = 800; being anywhere near it
    // proves the Poisson sampler is live.
    EXPECT_GT(total, 400);
    EXPECT_LT(total, 1600);
}

TEST(Arrivals, DifferentSeedsDecorrelateTheStream)
{
    ArrivalConfig cfg;
    cfg.profile.base_rate = 20.0;
    const ArrivalGenerator a(cfg, 1);
    const ArrivalGenerator b(cfg, 2);
    const auto ra = a.epochArrivals(0, 0, 0.0, 0.5);
    const auto rb = b.epochArrivals(0, 0, 0.0, 0.5);
    bool differs = ra.size() != rb.size();
    for (std::size_t i = 0; !differs && i < ra.size(); ++i) {
        differs = ra[i].arrival_time != rb[i].arrival_time ||
                  ra[i].demand_gi != rb[i].demand_gi;
    }
    EXPECT_TRUE(differs);
}

// The invariant the admission layer is built around: the projected
// depth of every board stays <= capacity at admission time, across
// seeds, demands, and hop-limited re-routing.
TEST(Admission, NeverAcceptsPastCapacityAcrossSeeds)
{
    const int boards = 5;
    AdmissionConfig cfg;
    cfg.queue_capacity_gi = 4.0;
    cfg.max_hops = 3;

    for (std::uint32_t seed = 1; seed <= 5; ++seed) {
        AdmissionController admission(cfg, boards);
        std::vector<double> depth(boards, 0.0);
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> demand(0.05, 3.0);
        std::uniform_int_distribution<int> origin(0, boards - 1);
        std::uniform_real_distribution<double> drain(0.0, 1.5);

        for (int i = 0; i < 2000; ++i) {
            Request r;
            r.demand_gi = demand(rng);
            r.remaining_gi = r.demand_gi;
            r.origin = origin(rng);
            const int dest = admission.route(r, depth);
            if (dest >= 0) {
                ASSERT_GE(dest, 0);
                ASSERT_LT(dest, boards);
            }
            for (double d : depth) {
                ASSERT_LE(d, cfg.queue_capacity_gi + 1e-12);
            }
            // Simulate service draining some backlog between requests.
            for (double& d : depth) {
                d = std::max(0.0, d - drain(rng) * 0.1);
            }
        }
        const auto& stats = admission.stats();
        EXPECT_EQ(stats.offered, 2000);
        EXPECT_EQ(stats.accepted + stats.rejected, stats.offered);
        EXPECT_GT(stats.rejected, 0);  // capacity 4 with demand ~1.5
    }
}

TEST(Admission, DisabledAcceptsEverythingAtOrigin)
{
    AdmissionConfig cfg;
    cfg.enabled = false;
    cfg.queue_capacity_gi = 0.5;
    AdmissionController admission(cfg, 3);
    std::vector<double> depth(3, 0.0);
    for (int i = 0; i < 50; ++i) {
        Request r;
        r.demand_gi = 2.0;
        r.remaining_gi = 2.0;
        r.origin = i % 3;
        EXPECT_EQ(admission.route(r, depth), r.origin);
    }
    EXPECT_EQ(admission.stats().rejected, 0);
    EXPECT_EQ(admission.stats().rerouted, 0);
}

TEST(Cluster, HotBoardsGetHigherTargetsInsideTheEnvelope)
{
    const yukta::platform::BoardConfig board;
    ClusterController cluster(ClusterConfig{}, board, 4);

    std::vector<BoardTelemetry> telemetry(4);
    telemetry[2].queued_gi = 30.0;   // the hot board
    telemetry[2].arrival_gi_ema = 4.0;
    for (int b = 0; b < 4; ++b) {
        if (b != 2) {
            telemetry[b].arrival_gi_ema = 0.5;
        }
    }

    const auto targets = cluster.computeTargets(telemetry);
    ASSERT_EQ(targets.size(), 4u);
    for (const auto& t : targets) {
        ASSERT_EQ(t.size(), 4u);
        EXPECT_GE(t[0], 0.5);                               // BIPS
        EXPECT_LE(t[0], 12.0);
        EXPECT_GE(t[1], 0.3);                               // P_big
        EXPECT_LE(t[1], 0.93 * board.power_limit_big);
        EXPECT_GE(t[2], 0.05);                              // P_little
        EXPECT_LE(t[2], 0.93 * board.power_limit_little);
        EXPECT_LT(t[3], board.temp_limit);                  // T target
    }
    // The hot board is pushed up relative to every idle board.
    for (int b = 0; b < 4; ++b) {
        if (b != 2) {
            EXPECT_GT(targets[2][0], targets[b][0]);
            EXPECT_GE(targets[2][1], targets[b][1]);
        }
    }
}

TEST(Cluster, UniformDemandKeepsTheFairSharePoint)
{
    const yukta::platform::BoardConfig board;
    ClusterController cluster(ClusterConfig{}, board, 8);
    std::vector<BoardTelemetry> telemetry(8);
    for (auto& t : telemetry) {
        t.arrival_gi_ema = 1.0;
    }
    const auto targets = cluster.computeTargets(telemetry);
    for (const auto& t : targets) {
        EXPECT_NEAR(t[0], 3.0, 1e-12);  // fair share == nominal BIPS
    }
}

// End-to-end: the fleet result must be a pure function of the config,
// independent of how many pool workers step the shards. This box has
// few cores, so the worker counts are explicit, not derived.
TEST(Fleet, RunIsBitIdenticalForAnyWorkerCount)
{
    FleetConfig cfg;
    cfg.boards = 6;
    cfg.sim_seconds = 6.0;
    cfg.seed = 11;
    cfg.arrivals.profile.base_rate = 6.0;
    const auto artifacts = yukta::fleet::fleetArtifacts();

    std::uint64_t digest1 = 0;
    std::uint64_t digest2 = 0;
    std::uint64_t digest4 = 0;
    {
        FleetSim sim(cfg, artifacts);
        digest1 = sim.run(1).digest();
    }
    {
        FleetSim sim(cfg, artifacts);
        digest2 = sim.run(2).digest();
    }
    {
        FleetSim sim(cfg, artifacts);
        digest4 = sim.run(4).digest();
    }
    EXPECT_EQ(digest1, digest2);
    EXPECT_EQ(digest1, digest4);
}

// The benchmark's traced fleet replica steps each board as
// stepPeriodBegin(&batch); batch.tick(); stepPeriodFinish(), and its
// replica-digest check rests on that being exactly stepPeriod() --
// through the supervisor and a window of dropped control ticks.
TEST(Fleet, SplitPeriodIsBitIdenticalToStepPeriod)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const yukta::platform::AppModel app =
        yukta::platform::AppCatalog::makeServiceApp(8, 1.5, 0.25);
    const auto makeBoard = [&] {
        yukta::controllers::MultilayerSystem sys = yukta::core::makeSystem(
            yukta::core::Scheme::kYuktaFull, artifacts,
            yukta::platform::Workload(app), 7);
        sys.enableSupervisor();
        sys.attachFaultInjector(
            yukta::fault::FaultPlan::parse("tick:miss@5+3"));
        return sys;
    };
    yukta::controllers::MultilayerSystem whole = makeBoard();
    yukta::controllers::MultilayerSystem split = makeBoard();
    yukta::controllers::BatchRuntime batch;
    for (int p = 0; p < 40; ++p) {
        whole.stepPeriod();
        split.stepPeriodBegin(&batch);
        batch.tick();
        split.stepPeriodFinish();
    }
    ASSERT_GT(whole.metrics().faults.dropped_ticks, 0u);
    yukta::obs::StateWriter a;
    yukta::obs::StateWriter b;
    whole.state(a);
    split.state(b);
    EXPECT_EQ(a.take(), b.take());
}

// A board checkpointed inside a sensor-freeze latch window, restored
// into a fresh identical board, continues bit for bit: the injector's
// RNG, jitter distribution, latch flags and latched readings all
// round-trip, not only the plant and controllers around them.
TEST(Fleet, FaultInjectorStateSurvivesRestore)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const yukta::platform::AppModel app =
        yukta::platform::AppCatalog::makeServiceApp(8, 1.5, 0.25);
    const auto makeBoard = [&] {
        yukta::controllers::MultilayerSystem sys = yukta::core::makeSystem(
            yukta::core::Scheme::kYuktaFull, artifacts,
            yukta::platform::Workload(app), 7);
        sys.enableSupervisor();
        sys.attachFaultInjector(yukta::fault::FaultPlan::parse(
            "p_big:freeze@3+10;temp:spike@4+6;tick:miss@5+3"));
        return sys;
    };
    yukta::controllers::MultilayerSystem live = makeBoard();
    for (int p = 0; p < 14; ++p) {
        live.stepPeriod();
    }
    yukta::obs::StateWriter mid;
    live.state(mid);
    const std::string body = mid.take();
    // Inside the freeze and spike windows, past the missed ticks.
    ASSERT_NE(body.find("\ninj.latched=3:1,1,0\n"), std::string::npos);

    yukta::controllers::MultilayerSystem restored = makeBoard();
    yukta::obs::StateReader r(body);
    restored.state(r);
    ASSERT_TRUE(r.atEnd());
    for (int p = 0; p < 20; ++p) {
        live.stepPeriod();
        restored.stepPeriod();
    }
    ASSERT_GT(live.metrics().faults.corrupted_fields, 0u);
    yukta::obs::StateWriter a;
    yukta::obs::StateWriter b;
    live.state(a);
    restored.state(b);
    EXPECT_EQ(a.take(), b.take());

    // Latch state for fewer windows than the plan has is refused, not
    // indexed past its end, and a latch flag past a byte is refused,
    // not truncated.
    for (const auto& [from, to] :
         {std::pair<std::string, std::string>{"\ninj.latched=3:1,1,0\n",
                                              "\ninj.latched=2:1,1\n"},
          {"\ninj.latched=3:1,1,0\n", "\ninj.latched=3:1,256,0\n"},
          {"\ninj.latch.n=3\n", "\ninj.latch.n=2\n"}}) {
        std::string edited = body;
        const std::size_t at = edited.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        edited.replace(at, from.size(), to);
        yukta::controllers::MultilayerSystem fresh = makeBoard();
        yukta::obs::StateReader er(edited);
        EXPECT_THROW(fresh.state(er), std::runtime_error) << to;
    }
}

TEST(Fleet, AdmissionStrictlyReducesSloViolationUnderOverload)
{
    FleetConfig cfg;
    cfg.boards = 4;
    cfg.sim_seconds = 12.0;
    cfg.seed = 3;
    cfg.arrivals.profile.base_rate = 14.0;  // far past service rate
    const auto artifacts = yukta::fleet::fleetArtifacts();

    FleetMetrics with;
    FleetMetrics without;
    {
        FleetSim sim(cfg, artifacts);
        with = sim.run(2);
    }
    {
        FleetConfig off = cfg;
        off.admission.enabled = false;
        FleetSim sim(off, artifacts);
        without = sim.run(2);
    }
    EXPECT_GT(without.slo_violation_time, 0.0);
    EXPECT_LT(with.slo_violation_time, without.slo_violation_time);
    EXPECT_GT(with.admission.rejected, 0);
    EXPECT_EQ(with.admission.accepted + with.admission.rejected,
              with.admission.offered);
}

TEST(Fleet, IdleAdmissionIsANoOp)
{
    // Capacity far above the run's whole offered mass: the admission
    // path evaluates every request yet can never reject, so the run
    // must be bit-identical to one with admission disabled.
    FleetConfig cfg;
    cfg.boards = 4;
    cfg.sim_seconds = 6.0;
    cfg.seed = 5;
    cfg.arrivals.profile.base_rate = 2.0;
    cfg.admission.queue_capacity_gi = 1e6;
    const auto artifacts = yukta::fleet::fleetArtifacts();

    std::uint64_t on = 0;
    std::uint64_t off = 0;
    {
        FleetSim sim(cfg, artifacts);
        on = sim.run(2).digest();
    }
    {
        FleetConfig disabled = cfg;
        disabled.admission.enabled = false;
        FleetSim sim(disabled, artifacts);
        off = sim.run(2).digest();
    }
    EXPECT_EQ(on, off);
}

}  // namespace
