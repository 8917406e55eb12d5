// Clean counterpart of bad_fixture.cpp: the linter must report
// nothing here, including for the suppressed exact comparison.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <random>

namespace yukta::platform {
struct SensorReadings {
    double p_big = 0.0;
};
}  // namespace yukta::platform

namespace yukta::obs {
class StateWriter;
}  // namespace yukta::obs

// One field list serves both checkpoint directions; a helper with
// another name (an immutable type's writer) is not a mirrored pair.
struct Checkpointed {
    double x = 0.0;
    template <class Io>
    void state(Io& io);
};
void saveModel(yukta::obs::StateWriter& w, const Checkpointed& c);

// A member named `time` is not a wall-clock read; the rule matches
// the clock types and the C call shapes only.
struct Event {
    double time() const { return 0.5; }
};

double freqResponse(double w);       // stand-ins: the freq-loop rule
double freqResponseBatch(double w);  // is lexical

// Consuming readings by reference is fine everywhere; only
// construction is restricted to the platform/fault layers.
double readPower(const yukta::platform::SensorReadings& obs)
{
    return obs.p_big;
}

int main()
{
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    double x = dist(rng);

    if (x == 0.0) {  // yukta-lint: allow(float-eq) exact sentinel
        return 1;
    }
    if (std::abs(x - 0.1) < 1e-12) {
        return 2;
    }

    for (int i = 0; i < 3; ++i) {
        std::cout << i << "\n";
        // yukta-lint: allow(freq-loop) deliberate oracle comparison
        x += freqResponse(static_cast<double>(i));
    }
    std::cout << std::endl;  // flush once, outside the loop: fine
    // Batched sweeps never trigger the rule, in or out of loops.
    x += freqResponseBatch(x);

    // Append-mode streams and read-only fopen never truncate, so the
    // atomic-write rule leaves both alone.
    std::ofstream log("run.log", std::ios::app);
    log << x << "\n";
    std::FILE* in = std::fopen("data.bin", "rb");
    if (in != nullptr) {
        std::fclose(in);
    }

    // Simulated timestamps and member accessors are not wall-clock
    // reads; a deliberate read outside src/obs is suppressible.
    Event ev;
    x += ev.time();
    // yukta-lint: allow(wall-clock) deliberate fixture demonstration
    auto real = std::chrono::steady_clock::now();
    (void)real;
    return 0;
}
