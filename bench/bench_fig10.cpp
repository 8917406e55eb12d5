/**
 * @file
 * Figure 10: big-cluster power of blackscholes as a function of time
 * under the four two-layer schemes (sustained limit: 3.3 W). A better
 * controller has fewer/smaller peaks and valleys and holds
 * steady-state power close to the limit.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"

int
main()
{
    using namespace yukta;
    auto artifacts = bench::defaultArtifacts();

    const std::vector<core::Scheme> schemes = {
        core::Scheme::kCoordinatedHeuristic,
        core::Scheme::kDecoupledHeuristic,
        core::Scheme::kYuktaHwSsvOsHeuristic,
        core::Scheme::kYuktaFull,
    };

    // Traced runs through the sweep engine; the per-scheme sections
    // print in Fig. 10 order from the index-ordered records,
    // independent of worker count.
    runner::SweepSpec sweep;
    sweep.schemes = schemes;
    sweep.workloads = {"blackscholes"};
    sweep.max_seconds = bench::kMaxSeconds;
    sweep.trace_interval = 2.0;
    auto result = bench::runBenchSweep(artifacts, sweep);

    for (core::Scheme scheme : schemes) {
        const auto& m = *result.metricsFor(scheme, "blackscholes");

        std::printf("=== %s ===\n", core::schemeName(scheme).c_str());
        std::printf("t(s)\tP_big(W)\n");
        for (const auto& s : m.trace) {
            std::printf("%.0f\t%.3f\n", s.time, s.p_big);
        }

        // Oscillation statistics for the figure's qualitative story.
        double mean = 0.0;
        double peak = 0.0;
        int over = 0;
        for (const auto& s : m.trace) {
            mean += s.p_big;
            peak = std::max(peak, s.p_big);
            if (s.p_big > 3.3) {
                ++over;
            }
        }
        mean /= std::max<std::size_t>(m.trace.size(), 1);
        std::printf("# summary: completion %.1f s, mean P_big %.2f W, "
                    "peak %.2f W, samples over 3.3 W: %d/%zu, "
                    "emergency %.1f s\n\n",
                    m.exec_time, mean, peak, over, m.trace.size(),
                    m.emergency_time);
        std::fflush(stdout);
    }
    std::printf("Paper: completion 270 s (a), 320 s (b), 205 s (c), "
                "180 s (d); steady power closest to 3.3 W under (d).\n");
    return 0;
}
