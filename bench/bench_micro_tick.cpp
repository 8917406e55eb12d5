/**
 * @file
 * Microbenchmark: per-tick cost of one controller invocation for the
 * three runtime implementations -- the SSV state machine (with its
 * deviation clamps, grids, and finiteness contracts), the LQG
 * baseline, and the Q16.16 fixed-point SSV of Sec. VI-D -- at the
 * paper's dimensions (N=20, I=4, O=4, E=3) and a size sweep. Reported
 * as ticks/second/core: how many 500 ms control periods one core can
 * evaluate per wall second, i.e. how many boards one core could
 * control (or the fleet simulator could step) at the controller layer
 * alone.
 *
 * Timing is best-of-R: each engine's rep loop runs R times and the
 * minimum wall time is reported, so a scheduler hiccup in one
 * repetition cannot inflate the published number.
 *
 * Correctness-gated, so CI can run this as a smoke stage without
 * gating on timing: the fixed-point state machine must agree with the
 * double-precision oracle (control::stepOnce) within the Q16.16
 * quantization budget.
 *
 * Usage: bench_micro_tick [--quick] [--out PATH]
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "control/state_space.h"
#include "controllers/fixed_point.h"
#include "controllers/lqg_runtime.h"
#include "controllers/ssv_runtime.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/stopwatch.h"
#include "robust/ssv_design.h"

namespace {

using yukta::control::StateSpace;
using yukta::controllers::FixedPointSsv;
using yukta::controllers::InputGrid;
using yukta::controllers::LqgRuntime;
using yukta::controllers::SsvRuntime;
using yukta::linalg::Matrix;
using yukta::linalg::Vector;

/** splitmix64, seeded: the bench must be exactly reproducible. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    double uniform(double lo, double hi)
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
        return lo + u * (hi - lo);
    }

  private:
    std::uint64_t state_;
};

Matrix
randomMatrix(SplitMix64& rng, std::size_t r, std::size_t c, double scale)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
            m(i, j) = rng.uniform(-scale, scale);
        }
    }
    return m;
}

/**
 * Random Schur-stable discrete controller: A scaled below unit
 * spectral radius via its infinity norm, B/C/D modest so the Q16.16
 * quantization of every coefficient stays well inside range.
 */
StateSpace
randomStableController(SplitMix64& rng, std::size_t n, std::size_t m,
                       std::size_t p)
{
    Matrix a = randomMatrix(rng, n, n, 1.0);
    const double norm = a.normInf();
    if (norm > 0.0) {
        const double shrink = 0.9 / (norm * 1.1);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) *= shrink;
            }
        }
    }
    return StateSpace(a, randomMatrix(rng, n, m, 0.5),
                      randomMatrix(rng, p, n, 0.5),
                      randomMatrix(rng, p, m, 0.25), 0.5);
}

/** Best-of-@p repeats wall-clock seconds of one @p body() run. */
template <typename F>
double
bestOf(int repeats, F&& body)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
        yukta::obs::Stopwatch watch;
        body();
        best = std::min(best, watch.seconds());
    }
    return best;
}

/** The DVFS-like actuator grids the runtimes quantize against. */
std::vector<InputGrid>
makeGrids(std::size_t inputs)
{
    std::vector<InputGrid> grids(inputs);
    for (std::size_t i = 0; i < inputs; ++i) {
        grids[i].min = -8.0;
        grids[i].max = 8.0;
        grids[i].step = i % 2 == 0 ? 0.1 : 0.0;
    }
    return grids;
}

struct CaseDims
{
    const char* label;
    std::size_t n;  ///< Controller states.
    std::size_t i;  ///< Physical inputs (u).
    std::size_t o;  ///< Tracked outputs.
    std::size_t e;  ///< External signals.
};

struct CaseResult
{
    CaseDims dims{};
    double ssv_ns = 0.0;
    double lqg_ns = 0.0;
    double fixed_ns = 0.0;
    double ssv_ticks_per_sec = 0.0;
    double lqg_ticks_per_sec = 0.0;
    double fixed_ticks_per_sec = 0.0;
    std::size_t fixed_macs = 0;
    std::size_t fixed_storage_bytes = 0;
    double fixed_max_err = 0.0;
};

/** Timing repetitions feeding the best-of reduction. */
constexpr int kRepeats = 5;

CaseResult
runCase(const CaseDims& dims, int reps)
{
    SplitMix64 rng(0x7101ull + dims.n * 131 + dims.i * 17 + dims.e);
    const std::size_t ndy = dims.o + dims.e;

    yukta::robust::SsvController cert;
    cert.k = randomStableController(rng, dims.n, ndy, dims.i);
    cert.design_bounds.assign(dims.o, 1.0);
    cert.guaranteed_bounds.assign(dims.o, 2.0);
    SsvRuntime ssv(cert, makeGrids(dims.i), Vector::zeros(dims.i),
                   Vector::zeros(dims.e));

    StateSpace lqg_k =
        randomStableController(rng, dims.n, dims.o, dims.i);
    LqgRuntime lqg(lqg_k, makeGrids(dims.i), Vector::zeros(dims.i));

    FixedPointSsv fixed(cert.k);

    // Pre-generate a deterministic excitation so the timed loops pay
    // no RNG cost; deviations stay inside the design bounds.
    const int excitation = 64;
    std::vector<Vector> devs;
    std::vector<Vector> exts;
    std::vector<Vector> dys;
    for (int s = 0; s < excitation; ++s) {
        Vector d(dims.o);
        for (std::size_t k = 0; k < dims.o; ++k) {
            d[k] = rng.uniform(-0.9, 0.9);
        }
        Vector ex(dims.e);
        for (std::size_t k = 0; k < dims.e; ++k) {
            ex[k] = rng.uniform(-0.5, 0.5);
        }
        Vector dy(ndy);
        for (std::size_t k = 0; k < dims.o; ++k) {
            dy[k] = d[k];
        }
        for (std::size_t k = 0; k < dims.e; ++k) {
            dy[dims.o + k] = ex[k];
        }
        devs.push_back(d);
        exts.push_back(ex);
        dys.push_back(dy);
    }

    CaseResult out;
    out.dims = dims;
    out.fixed_macs = fixed.macsPerInvocation();
    out.fixed_storage_bytes = fixed.storageBytes();

    double sink = 0.0;
    const double ssv_s = bestOf(kRepeats, [&] {
        for (int r = 0; r < reps; ++r) {
            sink += ssv.invoke(devs[static_cast<std::size_t>(
                                   r % excitation)],
                               exts[static_cast<std::size_t>(
                                   r % excitation)])[0];
        }
    });
    const double lqg_s = bestOf(kRepeats, [&] {
        for (int r = 0; r < reps; ++r) {
            sink += lqg.invoke(
                devs[static_cast<std::size_t>(r % excitation)])[0];
        }
    });
    std::vector<std::vector<std::int32_t>> fixed_dys;
    fixed_dys.reserve(dys.size());
    for (const Vector& dy : dys) {
        std::vector<std::int32_t> q(dy.size());
        for (std::size_t k = 0; k < dy.size(); ++k) {
            q[k] = FixedPointSsv::toFixed(dy[k]);
        }
        fixed_dys.push_back(std::move(q));
    }
    const double fixed_s = bestOf(kRepeats, [&] {
        for (int r = 0; r < reps; ++r) {
            sink += FixedPointSsv::fromFixed(
                fixed.step(fixed_dys[static_cast<std::size_t>(
                    r % excitation)])[0]);
        }
    });

    if (!std::isfinite(sink)) {
        std::cerr << "tick loops produced non-finite sink\n";
    }

    // Correctness gate: the fixed-point machine against the
    // double-precision state machine on the same K, same inputs.
    fixed.reset();
    Vector x_ref = Vector::zeros(dims.n);
    for (int s = 0; s < excitation; ++s) {
        const Vector& dy = dys[static_cast<std::size_t>(s)];
        const Vector u_fixed = fixed.stepDouble(dy);
        const Vector u_ref =
            yukta::control::stepOnce(cert.k, x_ref, dy);
        for (std::size_t k = 0; k < u_ref.size(); ++k) {
            out.fixed_max_err = std::max(
                out.fixed_max_err, std::abs(u_fixed[k] - u_ref[k]));
        }
    }

    const double r = static_cast<double>(reps);
    out.ssv_ns = ssv_s / r * 1e9;
    out.lqg_ns = lqg_s / r * 1e9;
    out.fixed_ns = fixed_s / r * 1e9;
    out.ssv_ticks_per_sec = out.ssv_ns > 0.0 ? 1e9 / out.ssv_ns : 0.0;
    out.lqg_ticks_per_sec = out.lqg_ns > 0.0 ? 1e9 / out.lqg_ns : 0.0;
    out.fixed_ticks_per_sec =
        out.fixed_ns > 0.0 ? 1e9 / out.fixed_ns : 0.0;
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_micro_tick.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_micro_tick [--quick] [--out PATH]\n";
            return 2;
        }
    }

    const int reps = quick ? 2000 : 200000;
    // "paper" is the prototype of Sec. VI-D; the others bracket it.
    const std::vector<CaseDims> cases_dims = {
        {"small", 8, 4, 4, 3},
        {"paper", 20, 4, 4, 3},
        {"mono", 24, 7, 7, 0},
        {"large", 32, 7, 7, 4},
    };

    std::vector<CaseResult> cases;
    bool ok = true;
    for (const CaseDims& dims : cases_dims) {
        CaseResult r = runCase(dims, reps);
        std::printf(
            "%-6s N=%2zu I=%zu O=%zu E=%zu: ssv %8.1f ns  lqg %8.1f ns"
            "  fixed %8.1f ns  (%.2e ssv ticks/s/core)  fx_err %.2e\n",
            r.dims.label, r.dims.n, r.dims.i, r.dims.o, r.dims.e,
            r.ssv_ns, r.lqg_ns, r.fixed_ns, r.ssv_ticks_per_sec,
            r.fixed_max_err);
        // Q16.16 grid is 2^-16 per coefficient; error compounds over
        // the MAC count and the 64-step trajectory.
        if (r.fixed_max_err > 0.05) {
            std::cerr << "FAIL: fixed-point diverges from the double "
                         "oracle for case " << r.dims.label << "\n";
            ok = false;
        }
        if (r.fixed_macs == 0 || r.fixed_storage_bytes == 0) {
            std::cerr << "FAIL: degenerate cost model for case "
                      << r.dims.label << "\n";
            ok = false;
        }
        cases.push_back(r);
    }

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"micro_tick\",\n"
         << "  \"reps\": " << reps << ",\n  \"repeats\": " << kRepeats
         << ",\n  \"timing\": \"best-of-repeats\",\n"
         << "  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CaseResult& r = cases[i];
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "    {\"case\": \"%s\", \"states\": %zu, \"inputs\": %zu, "
            "\"outputs\": %zu, \"external\": %zu, \"ssv_ns\": %.1f, "
            "\"lqg_ns\": %.1f, \"fixed_ns\": %.1f, "
            "\"ssv_ticks_per_sec\": %.0f, \"lqg_ticks_per_sec\": %.0f, "
            "\"fixed_ticks_per_sec\": %.0f, \"fixed_macs\": %zu, "
            "\"fixed_storage_bytes\": %zu, \"fixed_max_err\": %.3e}%s\n",
            r.dims.label, r.dims.n, r.dims.i, r.dims.o, r.dims.e,
            r.ssv_ns, r.lqg_ns, r.fixed_ns, r.ssv_ticks_per_sec,
            r.lqg_ticks_per_sec, r.fixed_ticks_per_sec, r.fixed_macs,
            r.fixed_storage_bytes, r.fixed_max_err,
            i + 1 < cases.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
