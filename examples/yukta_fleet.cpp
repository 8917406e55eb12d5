/**
 * @file
 * yukta-fleet: sharded fleet-simulation driver. Steps N boards (each
 * the full platform + multilayer controller stack) under an open-loop
 * Poisson request workload with a diurnal rate profile, fleet-level
 * admission control, and a cluster controller redistributing
 * per-board power/performance targets. The run result is
 * bit-identical for any --workers value; --digest prints the
 * fingerprint that proves it.
 *
 * Examples:
 *   yukta-fleet --boards=16 --sim-seconds=30
 *   yukta-fleet --boards=100 --sim-seconds=60 --workers=8 \
 *               --rate=14 --amplitude=0.6 --out=fleet.json
 *   yukta-fleet --boards=8 --no-admission --digest
 *   yukta-fleet --boards=8 --faults='board2:crash@10+5' --supervised
 *   yukta-fleet --checkpoint-every=20 --checkpoint-dir=ckpt
 *   yukta-fleet --resume=ckpt/fleet-latest.ckpt
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>

#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "fleet/fleet.h"
#include "runner/sweep.h"

using namespace yukta;

namespace {

void
usage()
{
    std::printf(
        "usage: yukta-fleet [options]\n"
        "  --boards=N          board instances (default 16)\n"
        "  --shards=N          shard count (default: one per board)\n"
        "  --workers=N         pool workers (default: hardware\n"
        "                      threads; result is identical for any N)\n"
        "  --sim-seconds=S     simulated time (default 30)\n"
        "  --seed=N            fleet seed (default 1)\n"
        "  --scheme=ID         controller scheme (default yukta-full)\n"
        "  --supervised        enable the per-board supervisor\n"
        "  --rate=R            mean arrivals/sec per board (default 8)\n"
        "  --amplitude=A       diurnal swing fraction [0,1) (default 0)\n"
        "  --day=S             diurnal period seconds (default 240)\n"
        "  --demand=GI         mean request demand (default 1)\n"
        "  --slo=S             latency SLO seconds (default 2)\n"
        "  --capacity=GI       per-board queue capacity (default 8)\n"
        "  --hops=N            admission re-route hops (default 3)\n"
        "  --no-admission      accept everything at its origin\n"
        "  --no-cluster        disable the cluster controller\n"
        "  --cluster-epochs=N  redistribution period (default 8)\n"
        "  --budget=W          fleet power budget (default 70%% of caps)\n"
        "  --hot=B:W           weight board B's arrival rate by W\n"
        "                      (repeatable; skewed-hotspot scenarios)\n"
        "  --faults=SPEC       board-fault schedule, e.g.\n"
        "                      'board2:crash@10+5;board0:hang@20+4'\n"
        "                      (kinds: crash, degrade, hang, drift)\n"
        "  --adapt             online adaptation: RLS sysid + drift\n"
        "                      detection per board, with re-synthesis\n"
        "                      and bumpless controller hot-swap\n"
        "  --fault-blind       disable the watchdog and fault-aware\n"
        "                      routing (the baseline the faults bench\n"
        "                      compares against)\n"
        "  --watchdog-attempts=N  shard tries per epoch (default 2)\n"
        "  --checkpoint-every=N   checkpoint every N epochs\n"
        "  --checkpoint-dir=DIR   where checkpoints go (created;\n"
        "                      default 'yukta-fleet-ckpt')\n"
        "  --resume=FILE       restore a checkpoint, then run to the\n"
        "                      configured end (flags must reproduce\n"
        "                      the original run's config)\n"
        "  --out=FILE          write the run JSON to FILE\n"
        "  --digest            print only the determinism digest\n"
        "  --quiet             suppress the summary\n");
}

/**
 * Parses all of @p v as a finite number; false on junk, trailing
 * text, overflow, or a sign an unsigned @p T cannot hold.
 */
template <typename T>
bool
parseNumber(const std::string& v, T* out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, *out);
    if (ec != std::errc() || ptr != end) {
        return false;
    }
    if constexpr (std::is_floating_point_v<T>) {
        return std::isfinite(*out);
    }
    return true;
}

bool
parseFlag(const char* arg, const char* name, std::string* value)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

}  // namespace

int
main(int argc, char** argv)
{
    fleet::FleetConfig cfg;
    cfg.boards = 16;
    cfg.sim_seconds = 30.0;
    std::size_t workers =
        std::max(1u, std::thread::hardware_concurrency());
    std::string out_file;
    std::string faults_spec;
    std::string resume_path;
    fleet::CheckpointConfig ckpt;
    bool digest_only = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char* a = argv[i];
        bool ok = true;
        if (std::strcmp(a, "--help") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(a, "--supervised") == 0) {
            cfg.supervised = true;
        } else if (std::strcmp(a, "--no-admission") == 0) {
            cfg.admission.enabled = false;
        } else if (std::strcmp(a, "--no-cluster") == 0) {
            cfg.cluster.enabled = false;
        } else if (std::strcmp(a, "--fault-blind") == 0) {
            cfg.fault_aware = false;
        } else if (std::strcmp(a, "--adapt") == 0) {
            cfg.adapt = true;
        } else if (std::strcmp(a, "--digest") == 0) {
            digest_only = true;
        } else if (std::strcmp(a, "--quiet") == 0) {
            quiet = true;
        } else if (parseFlag(a, "--boards", &v)) {
            ok = parseNumber(v, &cfg.boards);
        } else if (parseFlag(a, "--shards", &v)) {
            ok = parseNumber(v, &cfg.shards);
        } else if (parseFlag(a, "--workers", &v)) {
            ok = parseNumber(v, &workers);
        } else if (parseFlag(a, "--sim-seconds", &v)) {
            ok = parseNumber(v, &cfg.sim_seconds);
        } else if (parseFlag(a, "--seed", &v)) {
            ok = parseNumber(v, &cfg.seed);
        } else if (parseFlag(a, "--scheme", &v)) {
            auto s = runner::schemeFromId(v);
            if (!s) {
                std::fprintf(stderr, "unknown scheme '%s'\n", v.c_str());
                return 2;
            }
            cfg.scheme = *s;
        } else if (parseFlag(a, "--rate", &v)) {
            ok = parseNumber(v, &cfg.arrivals.profile.base_rate);
        } else if (parseFlag(a, "--amplitude", &v)) {
            ok = parseNumber(v, &cfg.arrivals.profile.amplitude);
        } else if (parseFlag(a, "--day", &v)) {
            ok = parseNumber(v, &cfg.arrivals.profile.period_seconds);
        } else if (parseFlag(a, "--demand", &v)) {
            ok = parseNumber(v, &cfg.arrivals.mean_demand_gi);
        } else if (parseFlag(a, "--slo", &v)) {
            ok = parseNumber(v, &cfg.slo_seconds);
        } else if (parseFlag(a, "--capacity", &v)) {
            ok = parseNumber(v, &cfg.admission.queue_capacity_gi);
        } else if (parseFlag(a, "--hops", &v)) {
            ok = parseNumber(v, &cfg.admission.max_hops);
        } else if (parseFlag(a, "--cluster-epochs", &v)) {
            ok = parseNumber(v, &cfg.cluster.period_epochs);
        } else if (parseFlag(a, "--budget", &v)) {
            ok = parseNumber(v, &cfg.cluster.power_budget_w);
        } else if (parseFlag(a, "--hot", &v)) {
            const std::size_t colon = v.find(':');
            int b = 0;
            double w = 0.0;
            if (colon == std::string::npos ||
                !parseNumber(v.substr(0, colon), &b) ||
                !parseNumber(v.substr(colon + 1), &w)) {
                std::fprintf(stderr, "--hot wants B:W\n");
                return 2;
            }
            if (b < 0) {
                std::fprintf(stderr, "--hot board must be >= 0\n");
                return 2;
            }
            if (cfg.arrivals.board_weight.size() <=
                static_cast<std::size_t>(b)) {
                cfg.arrivals.board_weight.resize(
                    static_cast<std::size_t>(b) + 1, 1.0);
            }
            cfg.arrivals.board_weight[static_cast<std::size_t>(b)] = w;
        } else if (parseFlag(a, "--faults", &v)) {
            faults_spec = v;
        } else if (parseFlag(a, "--watchdog-attempts", &v)) {
            ok = parseNumber(v, &cfg.watchdog_attempts);
        } else if (parseFlag(a, "--checkpoint-every", &v)) {
            if (!parseNumber(v, &ckpt.every_epochs) ||
                ckpt.every_epochs <= 0) {
                std::fprintf(stderr,
                             "--checkpoint-every wants a positive "
                             "epoch count\n");
                return 2;
            }
        } else if (parseFlag(a, "--checkpoint-dir", &v)) {
            ckpt.dir = v;
        } else if (parseFlag(a, "--resume", &v)) {
            resume_path = v;
        } else if (parseFlag(a, "--out", &v)) {
            out_file = v;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a);
            usage();
            return 2;
        }
        if (!ok) {
            std::fprintf(stderr, "%s: not a number\n", a);
            return 2;
        }
    }

    if (!faults_spec.empty()) {
        try {
            cfg.faults = fault::FaultPlan::parse(faults_spec);
        } catch (const std::invalid_argument& e) {
            std::fprintf(stderr, "--faults: %s\n", e.what());
            return 2;
        }
    }
    if (ckpt.every_epochs > 0) {
        if (ckpt.dir.empty()) ckpt.dir = "yukta-fleet-ckpt";
        std::error_code ec;
        std::filesystem::create_directories(ckpt.dir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create checkpoint dir %s: %s\n",
                         ckpt.dir.c_str(), ec.message().c_str());
            return 1;
        }
    } else if (!ckpt.dir.empty()) {
        std::fprintf(stderr,
                     "--checkpoint-dir needs --checkpoint-every=N\n");
        return 2;
    }

    if (!quiet && !digest_only) {
        std::fprintf(stderr,
                     "building artifacts (cached after first run)...\n");
    }
    const core::Artifacts artifacts = fleet::fleetArtifacts();

    std::optional<fleet::FleetSim> sim;
    try {
        sim.emplace(cfg, artifacts);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "yukta-fleet: %s\n", e.what());
        return 2;
    }
    if (!resume_path.empty()) {
        try {
            sim->restoreCheckpoint(resume_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "--resume: %s\n", e.what());
            return 1;
        }
        if (!quiet && !digest_only) {
            std::fprintf(stderr, "resumed %s at epoch %d\n",
                         resume_path.c_str(), sim->epoch());
        }
    }
    const fleet::FleetMetrics m = sim->run(workers, ckpt);

    if (digest_only) {
        std::printf("%016llx\n",
                    static_cast<unsigned long long>(m.digest()));
        return 0;
    }

    if (!out_file.empty()) {
        std::ofstream os(out_file);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", out_file.c_str());
            return 1;
        }
        os << m.toJson(true) << "\n";
    }

    if (!quiet) {
        std::printf("boards %d  epochs %d  sim %.1fs  wall %.2fs  "
                    "(%.0f board-ticks/s)\n",
                    m.boards, m.epochs, m.sim_seconds, m.wall_seconds,
                    m.board_ticks_per_sec);
        std::printf("requests: offered %lld  accepted %lld  "
                    "rejected %lld  rerouted %lld  completed %lld\n",
                    m.admission.offered, m.admission.accepted,
                    m.admission.rejected, m.admission.rerouted,
                    m.completed);
        std::printf("latency s: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
                    m.latency.quantile(0.50), m.latency.quantile(0.90),
                    m.latency.quantile(0.99), m.latency.maxValue());
        std::printf("energy %.1f J  fleet ExD %.1f J*s  "
                    "SLO violation %.1f board-s  backlog %.1f GI\n",
                    m.energy, m.exd, m.slo_violation_time, m.backlog_gi);
        if (!cfg.faults.empty()) {
            std::printf("faults: crashes %lld  reboots %lld  dropped "
                        "%lld  lost epochs %lld  degraded %lld  "
                        "timeouts %lld  retries %lld\n",
                        m.faults.crashes, m.faults.reboots,
                        m.faults.dropped_requests, m.faults.lost_epochs,
                        m.faults.degraded_epochs,
                        m.faults.watchdog_timeouts,
                        m.faults.shard_retries);
        }
        std::printf("cluster rounds %d  constraint violation %.2f s  "
                    "digest %016llx\n",
                    m.cluster_rounds, m.constraint_violation_time,
                    static_cast<unsigned long long>(m.digest()));
    }
    return 0;
}
