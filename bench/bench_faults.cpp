// Fault matrix: E x D and constraint-violation time, supervised vs
// unsupervised, across the injected-fault scenarios. The contract
// under test: in every fault scenario the supervised stack keeps
// constraint-violation time strictly below the unsupervised one (and
// never feeds the board a non-finite command).
//
//   bench_faults [--quick] [--scheme=ID] [--workload=NAME]
//
// --quick skips artifact synthesis (heuristic schemes only) and
// shortens the runs; it is the CI smoke configuration.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/plan.h"

namespace {

using namespace yukta;

struct Scenario {
    const char* name;
    const char* plan;
};

// Windows sit in the 8-40 s range so every scenario exercises entry,
// dwell, and recovery inside even the --quick budget.
const Scenario kScenarios[] = {
    {"clean", ""},
    {"nan-burst", "seed=11;p_big:nan@10+10;temp:nan@25+10"},
    {"stuck-power", "seed=12;p_big:stuck@10+25"},
    {"stale-telemetry", "seed=13;all:freeze@15+20"},
    {"spike", "seed=14;p_big:spike@10+15*8;p_little:spike@10+15*8"},
    {"dropout", "seed=15;p_big:drop@10+20;p_little:drop@10+20"},
    {"act+sensor", "seed=16;act:ignore@10+10;p_big:nan@12+18"},
    {"tick+sensor", "seed=17;tick:miss@10+6;p_little:drop@12+18"},
};

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string scheme_id = "decoupled";
    std::string workload = "swaptions";
    auto value = [](const char* arg, const char* prefix) -> const char* {
        const std::size_t n = std::strlen(prefix);
        return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (const char* scheme_arg = value(argv[i], "--scheme=")) {
            scheme_id = scheme_arg;
        } else if (const char* workload_arg =
                       value(argv[i], "--workload=")) {
            workload = workload_arg;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }

    auto scheme = runner::schemeFromId(scheme_id);
    if (!scheme) {
        std::fprintf(stderr, "unknown scheme id %s\n", scheme_id.c_str());
        return 2;
    }

    core::Artifacts artifacts;
    if (quick) {
        // Heuristic schemes need only the board config; skipping the
        // controller synthesis keeps the CI smoke run in seconds.
        artifacts.cfg = platform::BoardConfig::odroidXu3();
    } else {
        artifacts = bench::defaultArtifacts();
    }
    const double max_seconds = quick ? 60.0 : 300.0;

    // Every scenario twice: unsupervised, then supervised.
    std::vector<runner::RunSpec> runs;
    for (const Scenario& s : kScenarios) {
        for (bool supervised : {false, true}) {
            runner::RunSpec run;
            run.scheme = *scheme;
            run.workload = workload;
            run.max_seconds = max_seconds;
            run.fault_plan = s.plan;
            run.supervised = supervised;
            runs.push_back(run);
        }
    }

    auto result =
        runner::runAll(artifacts, runs, bench::benchRunnerOptions());
    for (const auto& r : result.records) {
        if (r.status != runner::TaskOutcome::Status::kOk) {
            std::fprintf(stderr, "run %zu (%s) failed: %s\n", r.index,
                         r.fault_plan.c_str(), r.error.c_str());
            return 1;
        }
    }

    std::printf("Fault matrix: %s on %s, %.0f s budget\n",
                scheme_id.c_str(), workload.c_str(), max_seconds);
    std::printf("%-16s %11s %11s %9s %9s %7s %6s %7s\n", "scenario",
                "ExD unsup", "ExD sup", "viol uns", "viol sup", "invld",
                "trans", "degr s");
    int violations_not_reduced = 0;
    for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
        const auto& unsup = result.records[2 * s].metrics;
        const auto& sup = result.records[2 * s + 1].metrics;
        std::printf("%-16s %11.1f %11.1f %9.2f %9.2f %7ld %6ld %7.1f\n",
                    kScenarios[s].name, unsup.exd, sup.exd,
                    unsup.violation_time, sup.violation_time,
                    sup.supervisor.invalid_ticks,
                    sup.supervisor.transitions(),
                    sup.supervisor.timeDegraded());
        const bool faulted = kScenarios[s].plan[0] != '\0';
        if (faulted && sup.violation_time >= unsup.violation_time &&
            unsup.violation_time > 0.0) {
            std::fprintf(stderr,
                         "FAIL %s: supervised violation %.3f s not "
                         "below unsupervised %.3f s\n",
                         kScenarios[s].name, sup.violation_time,
                         unsup.violation_time);
            ++violations_not_reduced;
        }
    }
    if (violations_not_reduced > 0) {
        return 1;
    }
    std::printf("supervised stack reduced constraint-violation time in "
                "every fault scenario\n");
    return 0;
}
