#ifndef YUKTA_BENCH_BENCH_COMMON_H_
#define YUKTA_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared plumbing for the experiment-reproduction benches: default
 * artifact construction (cached on disk after the first bench runs),
 * scheme execution, and normalized-table printing.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/yukta.h"
#include "runner/sweep.h"

namespace yukta::bench {

/** Time budget per run; generous relative to paper run times. */
inline constexpr double kMaxSeconds = 1200.0;

/**
 * Worker-pool size for sweep-driven benches: YUKTA_WORKERS when set,
 * else every hardware thread.
 */
inline std::size_t
sweepWorkers()
{
    // Worker count shapes wall time only, never results (1-vs-N
    // digest identity is the gated invariant).
    // yukta-audit: allow(getenv)
    if (const char* env = std::getenv("YUKTA_WORKERS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0) {
            return static_cast<std::size_t>(n);
        }
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Engine options shared by the figure benches: parallel workers,
 *  progress on stderr. */
inline runner::RunnerOptions
benchRunnerOptions()
{
    runner::RunnerOptions options;
    options.workers = sweepWorkers();
    options.progress = &std::cerr;
    return options;
}

/**
 * Runs a sweep against the paper-default artifacts and aborts the
 * bench when any run failed: the tables below index results by
 * (scheme, workload) and must not silently print holes.
 */
inline runner::SweepResult
runBenchSweep(const core::Artifacts& artifacts,
              const runner::SweepSpec& spec)
{
    auto result = runner::runSweep(artifacts, spec, benchRunnerOptions());
    for (const auto& r : result.records) {
        if (r.status != runner::TaskOutcome::Status::kOk) {
            std::fprintf(stderr, "run %s/%s/%u failed: %s\n",
                         runner::schemeId(r.scheme).c_str(),
                         r.workload.c_str(), r.seed, r.error.c_str());
            std::exit(1);
        }
    }
    return result;
}

/** Builds (or loads from ./yukta_cache) the paper-default artifacts. */
inline core::Artifacts
defaultArtifacts()
{
    return core::buildArtifacts(platform::BoardConfig::odroidXu3());
}

/** Runs one scheme on one workload and returns the metrics. */
inline controllers::RunMetrics
runScheme(const core::Artifacts& artifacts, core::Scheme scheme,
          platform::Workload workload, std::uint32_t seed = 1,
          double trace_interval = 0.0)
{
    auto system =
        core::makeSystem(scheme, artifacts, std::move(workload), seed);
    if (trace_interval > 0.0) {
        system.enableTrace(trace_interval);
    }
    return system.run(kMaxSeconds);
}

/** Prints one normalized row: values divided by the baseline column. */
inline void
printNormalizedRow(const std::string& label,
                   const std::vector<double>& values, double baseline)
{
    std::printf("%-16s", label.c_str());
    for (double v : values) {
        std::printf("  %6.2f", baseline > 0.0 ? v / baseline : 0.0);
    }
    std::printf("\n");
}

/** Geometric-mean-free average (the paper uses arithmetic averages). */
inline double
average(const std::vector<double>& v)
{
    if (v.empty()) {
        return 0.0;
    }
    double s = 0.0;
    for (double x : v) {
        s += x;
    }
    return s / static_cast<double>(v.size());
}

}  // namespace yukta::bench

#endif  // YUKTA_BENCH_BENCH_COMMON_H_
