/**
 * @file
 * Command-line runner: execute any scheme on any application (or
 * mix), print the metrics, and optionally dump the board trace as
 * CSV for plotting.
 *
 * Usage:
 *   run_scheme [scheme] [app] [seed] [trace.csv]
 *
 *   scheme: coordinated | decoupled | yukta-hw | yukta | lqg | mono
 *           (default: yukta)
 *   app:    any catalog name (blackscholes, mcf, ...) or mix
 *           (blmc, stga, blst, mcga); default blackscholes
 *   seed:   sensor-noise seed (default 1)
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <string>
#include <vector>

#include "core/yukta.h"

using namespace yukta;

namespace {

/** Writes @p trace to @p path as CSV: a header, then one row per sample. */
bool
saveTraceCsv(const std::string& path,
             const std::vector<platform::TraceSample>& trace)
{
    std::ofstream os(path);
    os << "time,p_big,p_little,temp,bips,f_big,f_little,big_cores,"
          "little_cores,threads,emergency\n"
       << std::setprecision(10);
    for (const platform::TraceSample& s : trace) {
        os << s.time << ',' << s.p_big << ',' << s.p_little << ','
           << s.temp << ',' << s.bips << ',' << s.f_big << ','
           << s.f_little << ',' << s.big_cores << ',' << s.little_cores
           << ',' << s.threads << ',' << (s.emergency ? 1 : 0) << "\n";
    }
    return static_cast<bool>(os);
}

core::Scheme
parseScheme(const std::string& name)
{
    if (name == "coordinated") {
        return core::Scheme::kCoordinatedHeuristic;
    }
    if (name == "decoupled") {
        return core::Scheme::kDecoupledHeuristic;
    }
    if (name == "yukta-hw") {
        return core::Scheme::kYuktaHwSsvOsHeuristic;
    }
    if (name == "yukta") {
        return core::Scheme::kYuktaFull;
    }
    if (name == "lqg") {
        return core::Scheme::kDecoupledLqg;
    }
    if (name == "mono") {
        return core::Scheme::kMonolithicLqg;
    }
    std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
    std::exit(2);
}

platform::Workload
parseWorkload(const std::string& name)
{
    for (const std::string& mix : platform::AppCatalog::mixNames()) {
        if (name == mix) {
            return platform::AppCatalog::getMix(name);
        }
    }
    return platform::Workload(platform::AppCatalog::get(name));
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string scheme_name = argc > 1 ? argv[1] : "yukta";
    std::string app = argc > 2 ? argv[2] : "blackscholes";
    std::uint32_t seed =
        argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 1;
    std::string trace_path = argc > 4 ? argv[4] : "";

    core::Scheme scheme = parseScheme(scheme_name);
    auto cfg = platform::BoardConfig::odroidXu3();

    auto artifacts = core::buildArtifacts(cfg);

    auto system =
        core::makeSystem(scheme, artifacts, parseWorkload(app), seed);
    if (!trace_path.empty()) {
        system.enableTrace(0.5);
    }
    auto m = system.run(1200.0);

    std::printf("%s on %s (seed %u)\n", core::schemeName(scheme).c_str(),
                app.c_str(), seed);
    std::printf("  completed   : %s\n", m.completed ? "yes" : "no");
    std::printf("  time        : %.1f s\n", m.exec_time);
    std::printf("  energy      : %.1f J\n", m.energy);
    std::printf("  E x D       : %.0f J*s\n", m.exd);
    std::printf("  emergencies : %.1f s\n", m.emergency_time);

    if (!trace_path.empty()) {
        if (saveTraceCsv(trace_path, m.trace)) {
            std::printf("  trace       : %s (%zu samples)\n",
                        trace_path.c_str(), m.trace.size());
        } else {
            std::fprintf(stderr, "failed to write %s\n",
                         trace_path.c_str());
            return 1;
        }
    }
    return 0;
}
