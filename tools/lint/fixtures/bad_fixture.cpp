// Deliberately bad file: every pattern rule must fire on it.
// Exercised by `yukta_lint.py --self-test` (and the ctest wrapper);
// excluded from normal tree lints.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>

std::string cachePath(const std::string& key);
double freqResponse(double w);  // stand-in: the rule is lexical

namespace yukta::platform {
struct SensorReadings {
    double p_big = 0.0;
};
}  // namespace yukta::platform

namespace yukta::obs {
class StateWriter;
class StateReader;
}  // namespace yukta::obs

// state-pair: a checkpoint field list written twice, once per
// direction, drifts apart silently.
struct Mirrored {
    double x = 0.0;
    void save(yukta::obs::StateWriter& w) const;  // state-pair
    void load(yukta::obs::StateReader& r);        // state-pair
};

int main()
{
    // sensor-construction: only the platform/fault layers may forge
    // telemetry snapshots.
    yukta::platform::SensorReadings forged{};
    forged.p_big = 1.0;

    srand(42);                       // banned-rand
    double x = static_cast<double>(rand());  // banned-rand

    // wall-clock: simulation code must derive time from tick counts.
    auto t0 = std::chrono::steady_clock::now();
    (void)t0;
    std::time_t wall = time(NULL);   // wall-clock (C shape)
    (void)wall;

    if (x == 0.1) {                  // float-eq
        return 1;
    }

    // cache-bypass + atomic-write: writing to the design cache without
    // the atomic helper tears files under concurrent writers.
    std::ofstream out(cachePath("k"));
    out << x;

    // atomic-write (C shape): a truncating fopen can leave a torn
    // file behind a crash mid-write.
    std::FILE* raw = std::fopen("out.bin", "wb");
    if (raw != nullptr) {
        std::fclose(raw);
    }

    for (int i = 0; i < 3; ++i) {
        std::cout << i << std::endl;  // endl-in-loop
        x += freqResponse(static_cast<double>(i));  // freq-loop
    }

    // The init-list braces in the range header must not swallow the
    // loop keyword (regression: the body used to escape loop rules).
    for (double w : {0.5, 1.5}) {
        x += freqResponse(w);         // freq-loop
    }
    return 0;
}
