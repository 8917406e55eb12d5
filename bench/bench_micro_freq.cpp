/**
 * @file
 * Microbenchmark: batched (Hessenberg) vs pointwise (dense csolve)
 * frequency response, a matmul micro-section sizing the sparsity-skip
 * payoff, the mu sweep at 1, 2 and 4 worker threads, and the pinned
 * D-K synthesis at 1 and 2 rounds. Timings are recorded through the
 * observability machinery (YUKTA_PROFILE_SCOPE -> MetricsRegistry
 * histograms; this translation unit defines YUKTA_TRACE, and the mu
 * sweep and D-K runs are timed best-of-N with obs::Stopwatch) and
 * emitted as BENCH_micro_freq.json so the speedup trajectory is
 * tracked in-repo.
 *
 * The bench is correctness-checked: it exits non-zero when the
 * batched engine disagrees with the pointwise oracle beyond 1e-10
 * relative, or when a parallel mu sweep differs in any bit from the
 * serial one, so CI can run it as a smoke stage without gating on
 * timing.
 *
 * Usage: bench_micro_freq [--quick] [--out PATH]
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "control/interconnect.h"
#include "control/state_space.h"
#include "linalg/cmatrix.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/stopwatch.h"
#include "robust/dk.h"
#include "robust/mu.h"
#include "robust/ssv_design.h"

namespace {

using yukta::control::StateSpace;
using yukta::control::logSpacedFrequencies;
using yukta::linalg::CMatrix;
using yukta::linalg::Matrix;

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
randomMatrix(SplitMix64& rng, std::size_t r, std::size_t c)
{
    Matrix m(r, c);
    for (std::size_t i = 0; i < r; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
            m(i, j) = rng.uniform(-1.0, 1.0);
        }
    }
    return m;
}

/** Hurwitz A: shifted left by its infinity norm plus a margin. */
StateSpace
randomStablePlant(SplitMix64& rng, std::size_t n, std::size_t m,
                  std::size_t p)
{
    Matrix a = randomMatrix(rng, n, n);
    const double shift = a.normInf() + 0.5;
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) -= shift;
    }
    return StateSpace(a, randomMatrix(rng, n, m), randomMatrix(rng, p, n),
                      randomMatrix(rng, p, m), 0.0);
}

/** Reads the accumulated seconds of histogram "profile.<name>". */
double
profileSeconds(const std::string& name)
{
    return yukta::obs::globalMetrics()
        .histogram("profile." + name)
        .sum();
}

struct CaseResult
{
    std::size_t order = 0;
    double pointwise_s = 0.0;
    double batch_s = 0.0;
    double speedup = 0.0;
    double max_rel_err = 0.0;
};

CaseResult
runCase(std::size_t order, std::size_t grid_points, int reps)
{
    SplitMix64 rng(0xBEEFull + order);
    StateSpace sys = randomStablePlant(rng, order, 2, 2);
    const std::vector<double> freqs =
        logSpacedFrequencies(1e-3, 1e3, grid_points);

    CaseResult out;
    out.order = order;
    const std::string point_name = "bench.freq_pointwise.n" +
                                   std::to_string(order);
    const std::string batch_name = "bench.freq_batch.n" +
                                   std::to_string(order);

    std::vector<CMatrix> ref;
    std::vector<CMatrix> batch;
    for (int rep = 0; rep < reps; ++rep) {
        {
            yukta::obs::ProfileScope scope(point_name.c_str());
            ref.clear();
            ref.reserve(freqs.size());
            for (double w : freqs) {
                // yukta-lint: allow(freq-loop) this IS the oracle side
                ref.push_back(sys.freqResponse(w));
            }
        }
        {
            yukta::obs::ProfileScope scope(batch_name.c_str());
            batch = sys.freqResponseBatch(freqs);
        }
    }

    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const double denom = std::max(ref[i].maxAbs(), 1.0);
        out.max_rel_err = std::max(
            out.max_rel_err, (batch[i] - ref[i]).maxAbs() / denom);
    }
    out.pointwise_s = profileSeconds(point_name) / reps;
    out.batch_s = profileSeconds(batch_name) / reps;
    out.speedup = out.batch_s > 0.0 ? out.pointwise_s / out.batch_s : 0.0;
    return out;
}

struct MatmulResult
{
    std::size_t n = 0;
    double dense_s = 0.0;
    double zero_heavy_s = 0.0;
};

/**
 * Times the matmul sparsity skip on its best case (a half-zero
 * factor) vs dense operands, so the cost of the NaN-correct skip
 * (one allFinite() scan of the right factor) stays visible.
 */
MatmulResult
runMatmul(std::size_t n, int reps)
{
    SplitMix64 rng(0xCAFEull + n);
    Matrix dense_a = randomMatrix(rng, n, n);
    Matrix dense_b = randomMatrix(rng, n, n);
    Matrix sparse_a = dense_a;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if ((i + j) % 2 == 0) {
                sparse_a(i, j) = 0.0;
            }
        }
    }

    MatmulResult out;
    out.n = n;
    const std::string dense_name = "bench.matmul_dense.n" +
                                   std::to_string(n);
    const std::string sparse_name = "bench.matmul_zero_heavy.n" +
                                    std::to_string(n);
    double sink = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        {
            yukta::obs::ProfileScope scope(dense_name.c_str());
            sink += (dense_a * dense_b)(0, 0);
        }
        {
            yukta::obs::ProfileScope scope(sparse_name.c_str());
            sink += (sparse_a * dense_b)(0, 0);
        }
    }
    if (!std::isfinite(sink)) {
        std::cerr << "matmul produced non-finite sink\n";
    }
    out.dense_s = profileSeconds(dense_name) / reps;
    out.zero_heavy_s = profileSeconds(sparse_name) / reps;
    return out;
}

/** The small SSV spec of tests/robust/dk_pin_test.cpp. */
yukta::robust::SsvSpec
pinnedSpec(int iterations)
{
    Matrix a{{0.6, 0.1}, {0.05, 0.7}};
    Matrix b{{0.5, 0.1, 0.1}, {0.1, 0.4, 0.05}};
    Matrix c{{1.0, 0.2}, {0.1, 1.0}};
    yukta::robust::SsvSpec spec;
    spec.model = StateSpace(a, b, c, Matrix(2, 3), 0.5);
    spec.num_inputs = 2;
    spec.num_external = 1;
    spec.in_min = {0.0, 0.0};
    spec.in_max = {4.0, 2.0};
    spec.in_step = {1.0, 0.1};
    spec.in_weight = {1.0, 1.0};
    spec.out_bound = {0.4, 0.3};
    spec.out_range = {2.0, 1.5};
    spec.guardband = 0.4;
    spec.max_order = 12;
    spec.dk.max_iterations = iterations;
    spec.dk.mu_grid = 12;
    spec.dk.bisection_steps = 8;
    return spec;
}

/** @return true when @p a and @p b agree in every bit of every field. */
bool
sameSweep(const yukta::robust::MuSweep& a, const yukta::robust::MuSweep& b)
{
    if (a.freqs != b.freqs || a.mu.size() != b.mu.size() ||
        std::memcmp(&a.peak, &b.peak, sizeof a.peak) != 0 ||
        std::memcmp(&a.peak_freq, &b.peak_freq, sizeof a.peak_freq) != 0) {
        return false;
    }
    for (std::size_t i = 0; i < a.mu.size(); ++i) {
        const yukta::robust::MuBound& x = a.mu[i];
        const yukta::robust::MuBound& y = b.mu[i];
        if (std::memcmp(&x.upper, &y.upper, sizeof x.upper) != 0 ||
            std::memcmp(&x.lower, &y.lower, sizeof x.lower) != 0 ||
            x.d_scales != y.d_scales) {
            return false;
        }
    }
    return true;
}

struct SweepResult
{
    std::size_t workers = 0;
    double best_s = 0.0;
    bool identical = false;  ///< Same bits as the 1-worker sweep.
};

/**
 * Times the 12-point mu sweep of the pinned D-K closed loop at 1, 2
 * and 4 workers, best of @p reps each, and compares every result with
 * the serial one bit for bit. It stands for ssvSynthesize's
 * certification sweep of the shipped loop (same grid and blocks), the
 * one sweep the single-round recipe still runs; designSsvLayer runs
 * it on every hardware thread.
 */
std::vector<SweepResult>
runMuSweeps(int reps)
{
    const yukta::robust::SsvSpec spec = pinnedSpec(1);
    const yukta::robust::PlantPartition part =
        yukta::robust::ssvPartition(spec);
    const yukta::robust::BlockStructure structure =
        yukta::robust::ssvBlockStructure(spec);
    const StateSpace pc = yukta::robust::buildGeneralizedPlant(spec, true);
    const auto dk =
        yukta::robust::dkSynthesize(pc, part, structure, spec.dk);
    if (!dk) {
        std::cerr << "mu sweep: the pinned D-K synthesis failed\n";
        return {};
    }
    const StateSpace loop =
        yukta::control::lftLower(pc, dk->k, part.nz, part.nw);

    std::vector<SweepResult> out;
    yukta::robust::MuSweep serial;
    for (std::size_t workers : {1u, 2u, 4u}) {
        SweepResult r;
        r.workers = workers;
        r.identical = true;
        for (int rep = 0; rep < reps; ++rep) {
            const yukta::obs::Stopwatch watch;
            yukta::robust::MuSweep sweep = yukta::robust::muFrequencySweep(
                loop, structure, spec.dk.mu_grid, workers);
            const double s = watch.seconds();
            r.best_s = rep == 0 ? s : std::min(r.best_s, s);
            if (workers == 1 && rep == 0) {
                serial = std::move(sweep);
            } else {
                r.identical = r.identical && sameSweep(sweep, serial);
            }
        }
        out.push_back(r);
    }
    return out;
}

struct DkRun
{
    int iterations = 0;
    double best_s = 0.0;
};

/**
 * Times the pinned dkSynthesize at 1 and 2 rounds, serial, best of
 * @p reps each. A single round sweeps no mu; two rounds sweep both
 * loops (to fit D, then to compare).
 *
 * @return the runs, or an empty list when a synthesis fails.
 */
std::vector<DkRun>
runDk(int reps)
{
    std::vector<DkRun> out;
    for (int iterations : {1, 2}) {
        const yukta::robust::SsvSpec spec = pinnedSpec(iterations);
        const StateSpace pc =
            yukta::robust::buildGeneralizedPlant(spec, true);
        DkRun r;
        r.iterations = iterations;
        for (int rep = 0; rep < reps; ++rep) {
            const yukta::obs::Stopwatch watch;
            const auto dk = yukta::robust::dkSynthesize(
                pc, yukta::robust::ssvPartition(spec),
                yukta::robust::ssvBlockStructure(spec), spec.dk);
            const double s = watch.seconds();
            if (!dk) {
                std::cerr << "dk: the pinned synthesis failed at "
                          << iterations << " rounds\n";
                return {};
            }
            r.best_s = rep == 0 ? s : std::min(r.best_s, s);
        }
        out.push_back(r);
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_micro_freq.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_micro_freq [--quick] [--out PATH]\n";
            return 2;
        }
    }

    const std::size_t grid_points = 96;
    const int reps = quick ? 5 : 200;
    const std::vector<std::size_t> orders = {4, 8, 12, 16};

    std::vector<CaseResult> cases;
    bool ok = true;
    for (std::size_t order : orders) {
        CaseResult r = runCase(order, grid_points, reps);
        std::printf("order %2zu: pointwise %10.3f us  batch %10.3f us  "
                    "speedup %5.2fx  max_rel_err %.3e\n",
                    r.order, r.pointwise_s * 1e6, r.batch_s * 1e6,
                    r.speedup, r.max_rel_err);
        if (r.max_rel_err > 1e-10) {
            std::cerr << "FAIL: batch disagrees with the pointwise "
                         "oracle at order " << order << "\n";
            ok = false;
        }
        cases.push_back(r);
    }

    std::vector<MatmulResult> matmuls;
    for (std::size_t n : {8u, 32u, 96u}) {
        MatmulResult r = runMatmul(n, reps);
        std::printf("matmul n=%2zu: dense %9.3f us  zero-heavy %9.3f us\n",
                    r.n, r.dense_s * 1e6, r.zero_heavy_s * 1e6);
        matmuls.push_back(r);
    }

    const int sweep_reps = quick ? 2 : 10;
    const std::vector<SweepResult> sweeps = runMuSweeps(sweep_reps);
    if (sweeps.empty()) {
        ok = false;
    }
    for (const SweepResult& r : sweeps) {
        std::printf("mu sweep, 12 points, %zu worker%s: best %9.3f ms  "
                    "%s\n",
                    r.workers, r.workers == 1 ? " " : "s", r.best_s * 1e3,
                    r.identical ? "bit-identical" : "DIFFERS");
        if (!r.identical) {
            std::cerr << "FAIL: the mu sweep on " << r.workers
                      << " workers differs from the serial sweep\n";
            ok = false;
        }
    }

    const std::vector<DkRun> dk_runs = runDk(sweep_reps);
    if (dk_runs.empty()) {
        ok = false;
    }
    for (const DkRun& r : dk_runs) {
        std::printf("dk, 12-point grid, %d round%s: best %9.3f ms\n",
                    r.iterations, r.iterations == 1 ? " " : "s",
                    r.best_s * 1e3);
    }

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"micro_freq\",\n"
         << "  \"grid_points\": " << grid_points << ",\n"
         << "  \"reps\": " << reps << ",\n  \"cases\": [\n";
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const CaseResult& r = cases[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"order\": %zu, \"pointwise_us\": %.3f, "
                      "\"batch_us\": %.3f, \"speedup\": %.2f, "
                      "\"max_rel_err\": %.3e}%s\n",
                      r.order, r.pointwise_s * 1e6, r.batch_s * 1e6,
                      r.speedup, r.max_rel_err,
                      i + 1 < cases.size() ? "," : "");
        json << buf;
    }
    json << "  ],\n  \"matmul\": [\n";
    for (std::size_t i = 0; i < matmuls.size(); ++i) {
        const MatmulResult& r = matmuls[i];
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "    {\"n\": %zu, \"dense_us\": %.3f, "
                      "\"zero_heavy_us\": %.3f}%s\n",
                      r.n, r.dense_s * 1e6, r.zero_heavy_s * 1e6,
                      i + 1 < matmuls.size() ? "," : "");
        json << buf;
    }
    json << "  ],\n  \"mu_sweep\": {\"grid_points\": 12, \"reps\": "
         << sweep_reps << ", \"runs\": [\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepResult& r = sweeps[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    {\"workers\": %zu, \"best_ms\": %.3f, "
                      "\"speedup\": %.2f, \"bit_identical\": %s}%s\n",
                      r.workers, r.best_s * 1e3,
                      r.best_s > 0.0 ? sweeps[0].best_s / r.best_s : 0.0,
                      r.identical ? "true" : "false",
                      i + 1 < sweeps.size() ? "," : "");
        json << buf;
    }
    json << "  ]},\n  \"dk\": {\"mu_grid\": 12, \"reps\": " << sweep_reps
         << ", \"runs\": [\n";
    for (std::size_t i = 0; i < dk_runs.size(); ++i) {
        const DkRun& r = dk_runs[i];
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "    {\"max_iterations\": %d, \"best_ms\": %.3f}%s\n",
                      r.iterations, r.best_s * 1e3,
                      i + 1 < dk_runs.size() ? "," : "");
        json << buf;
    }
    json << "  ]}\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
