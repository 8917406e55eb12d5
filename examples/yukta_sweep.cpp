/**
 * @file
 * yukta-sweep: parallel experiment-sweep driver. Expands a
 * declarative (scheme x workload x seed) sweep, fans the runs out
 * across a worker pool, and prints an aggregated table from the
 * structured run records.
 *
 * Examples:
 *   yukta-sweep --list
 *   yukta-sweep --schemes=coordinated,yukta-full \
 *               --workloads=blackscholes,gamess --seeds=1,2 --workers=4
 *   yukta-sweep --jsonl=sweep.jsonl
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/yukta.h"
#include "runner/sweep.h"

using namespace yukta;

namespace {

void
usage()
{
    std::printf(
        "usage: yukta-sweep [options]\n"
        "  --schemes=ID,...     schemes to run (default: the four\n"
        "                       two-layer schemes of Fig. 9)\n"
        "  --workloads=NAME,... apps or mixes (default: the paper's\n"
        "                       evaluation set)\n"
        "  --seeds=N,...        board seeds (default: 1)\n"
        "  --workers=N          pool size (default: hardware threads)\n"
        "  --max-seconds=S      simulated-time budget per run\n"
        "  --trace-interval=S   record traces every S simulated\n"
        "                       seconds\n"
        "  --trace=DIR          write one structured per-tick event\n"
        "                       trace per run into DIR\n"
        "  --trace-format=F     jsonl (default), chrome, or both\n"
        "  --metrics            print the metrics-registry snapshot\n"
        "                       (JSON) after the sweep\n"
        "  --timeout=S          wall-clock timeout per run\n"
        "  --faults=SPEC        inject faults, e.g.\n"
        "                       'seed=1;p_big:nan@10+5;act:ignore@20+4'\n"
        "  --supervised         run the controller supervisor\n"
        "  --attempts=N         retry failed runs up to N attempts\n"
        "  --retry-backoff=S    linear backoff between attempts\n"
        "  --jsonl=FILE         append one JSON record per run\n"
        "  --quiet              no per-run progress lines\n"
        "  --list               list scheme ids and workloads, exit\n"
        "The design-cache directory honors YUKTA_CACHE_DIR.\n");
}

std::vector<std::string>
splitCsv(const std::string& s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

void
listCatalog()
{
    std::printf("schemes:\n");
    for (core::Scheme s : core::allSchemes()) {
        std::printf("  %-14s %s\n", runner::schemeId(s).c_str(),
                    core::schemeName(s).c_str());
    }
    std::printf("workloads (apps):\n ");
    for (const std::string& a : platform::AppCatalog::evaluationApps()) {
        std::printf(" %s", a.c_str());
    }
    std::printf("\nworkloads (mixes):\n ");
    for (const std::string& m : platform::AppCatalog::mixNames()) {
        std::printf(" %s", m.c_str());
    }
    std::printf("\n");
}

}  // namespace

int
main(int argc, char** argv)
{
    runner::SweepSpec spec;
    spec.schemes = {core::Scheme::kCoordinatedHeuristic,
                    core::Scheme::kDecoupledHeuristic,
                    core::Scheme::kYuktaHwSsvOsHeuristic,
                    core::Scheme::kYuktaFull};
    spec.workloads = platform::AppCatalog::evaluationApps();

    runner::RunnerOptions options;
    options.workers = std::max(1u, std::thread::hardware_concurrency());
    options.progress = &std::cerr;

    std::string jsonl_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* prefix) -> const char* {
            return arg.compare(0, std::strlen(prefix), prefix) == 0
                       ? arg.c_str() + std::strlen(prefix)
                       : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            listCatalog();
            return 0;
        } else if (arg == "--quiet") {
            options.progress = nullptr;
        } else if (const char* schemes_arg = value("--schemes=")) {
            spec.schemes.clear();
            for (const std::string& id : splitCsv(schemes_arg)) {
                auto s = runner::schemeFromId(id);
                if (!s) {
                    std::fprintf(stderr, "unknown scheme id '%s' "
                                 "(see --list)\n", id.c_str());
                    return 2;
                }
                spec.schemes.push_back(*s);
            }
        } else if (const char* workloads_arg = value("--workloads=")) {
            spec.workloads = splitCsv(workloads_arg);
        } else if (const char* seeds_arg = value("--seeds=")) {
            spec.seeds.clear();
            for (const std::string& s : splitCsv(seeds_arg)) {
                spec.seeds.push_back(
                    static_cast<std::uint32_t>(std::strtoul(s.c_str(),
                                                            nullptr, 10)));
            }
        } else if (const char* workers_arg = value("--workers=")) {
            options.workers = std::strtoul(workers_arg, nullptr, 10);
        } else if (const char* max_s_arg = value("--max-seconds=")) {
            spec.max_seconds = std::strtod(max_s_arg, nullptr);
        } else if (const char* interval_arg = value("--trace-interval=")) {
            spec.trace_interval = std::strtod(interval_arg, nullptr);
        } else if (const char* format_arg = value("--trace-format=")) {
            options.trace_format = format_arg;
        } else if (const char* trace_arg = value("--trace=")) {
            options.trace_dir = trace_arg;
        } else if (arg == "--metrics") {
            options.emit_metrics = true;
        } else if (const char* timeout_arg = value("--timeout=")) {
            options.run_timeout_seconds = std::strtod(timeout_arg, nullptr);
        } else if (const char* faults_arg = value("--faults=")) {
            spec.fault_plan = faults_arg;
        } else if (arg == "--supervised") {
            spec.supervised = true;
        } else if (const char* attempts_arg = value("--attempts=")) {
            options.run_attempts =
                static_cast<int>(std::strtol(attempts_arg, nullptr, 10));
        } else if (const char* backoff_arg = value("--retry-backoff=")) {
            options.retry_backoff_seconds = std::strtod(backoff_arg, nullptr);
        } else if (const char* jsonl_arg = value("--jsonl=")) {
            jsonl_path = jsonl_arg;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (spec.schemes.empty() || spec.workloads.empty() ||
        spec.seeds.empty()) {
        std::fprintf(stderr, "empty sweep (no schemes/workloads/seeds)\n");
        return 2;
    }
    if (options.trace_format != "jsonl" && options.trace_format != "chrome" &&
        options.trace_format != "both") {
        std::fprintf(stderr, "bad --trace-format '%s' (want jsonl, "
                     "chrome, or both)\n", options.trace_format.c_str());
        return 2;
    }

    // Validate the fault plan and workload names before paying for
    // artifact synthesis.
    if (!spec.fault_plan.empty()) {
        try {
            (void)fault::FaultPlan::parse(spec.fault_plan);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bad --faults spec: %s\n", e.what());
            return 2;
        }
    }
    for (const std::string& w : spec.workloads) {
        try {
            (void)runner::makeWorkload(w);
        } catch (const std::exception&) {
            std::fprintf(stderr, "unknown workload '%s' (see --list)\n",
                         w.c_str());
            return 2;
        }
    }

    std::ofstream jsonl;
    if (!jsonl_path.empty()) {
        jsonl.open(jsonl_path, std::ios::app);
        if (!jsonl) {
            std::fprintf(stderr, "cannot open '%s'\n", jsonl_path.c_str());
            return 2;
        }
        options.jsonl = &jsonl;
    }

    auto artifacts =
        core::buildArtifacts(platform::BoardConfig::odroidXu3());

    const auto runs = runner::expandSweep(spec);
    std::fprintf(stderr, "sweep: %zu runs on %zu worker(s)\n", runs.size(),
                 options.workers);

    auto result = runner::runSweep(artifacts, spec, options);

    // Aggregated table: rows = workload x seed, columns = schemes.
    std::printf("%-18s", "workload/seed");
    for (core::Scheme s : spec.schemes) {
        std::printf(" %14s", runner::schemeId(s).c_str());
    }
    std::printf("   (ExD; J*s)\n");
    for (const std::string& w : spec.workloads) {
        for (std::uint32_t seed : spec.seeds) {
            std::ostringstream label;
            label << w << "/" << seed;
            std::printf("%-18s", label.str().c_str());
            for (core::Scheme s : spec.schemes) {
                const auto* m = result.metricsFor(s, w, seed);
                if (m != nullptr) {
                    std::printf(" %14.0f", m->exd);
                } else {
                    std::printf(" %14s", "-");
                }
            }
            std::printf("\n");
        }
    }

    const std::size_t errors =
        result.countStatus(runner::TaskOutcome::Status::kError);
    const std::size_t timeouts =
        result.countStatus(runner::TaskOutcome::Status::kTimeout);
    double wall = 0.0;
    for (const auto& r : result.records) {
        wall += r.wall_seconds;
    }
    std::printf("\n%zu runs: %zu ok, %zu error, %zu timeout; "
                "%.1f run-seconds total\n",
                result.records.size(),
                result.records.size() - errors - timeouts, errors,
                timeouts, wall);
    for (const auto& r : result.records) {
        if (r.status == runner::TaskOutcome::Status::kError) {
            std::printf("  error: %s/%s/%u: %s\n",
                        runner::schemeId(r.scheme).c_str(),
                        r.workload.c_str(), r.seed, r.error.c_str());
        }
    }
    if (!options.trace_dir.empty()) {
        std::fprintf(stderr, "traces written to %s/\n",
                     options.trace_dir.c_str());
    }
    if (options.emit_metrics) {
        std::printf("%s\n", result.metrics_json.c_str());
    }
    return errors == 0 && timeouts == 0 ? 0 : 1;
}
