#include "core/cache.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "obs/rollup.h"

#ifdef __unix__
#include <unistd.h>
#endif

namespace yukta::core {

using control::StateSpace;
using linalg::Matrix;
using linalg::Vector;

namespace {

/**
 * Written into every entry and folded into every entry name. Bump
 * when the text format changes, or when the synthesizer's output for
 * unchanged inputs changes.
 */
constexpr int kFormatVersion = 4;

void
writeMatrix(std::ostream& os, const Matrix& m)
{
    os << m.rows() << " " << m.cols() << "\n";
    os << std::setprecision(17);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            os << m(r, c) << (c + 1 == m.cols() ? "\n" : " ");
        }
    }
}

bool
readMatrix(std::istream& is, Matrix& m)
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    if (!(is >> rows >> cols)) {
        return false;
    }
    m = Matrix(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (!(is >> m(r, c))) {
                return false;
            }
        }
    }
    return true;
}

// Canonical key text: every double at 17 significant digits (distinct
// doubles never print alike), every list prefixed by its length.

void
keyValues(std::ostream& os, const double* v, std::size_t n)
{
    os << "|" << n << ":";
    for (std::size_t i = 0; i < n; ++i) {
        os << v[i] << ",";
    }
}

void
keyInputs(std::ostream& os, const std::vector<SignalSpec>& inputs)
{
    for (const SignalSpec& in : inputs) {
        const double v[] = {in.min, in.max, in.step, in.weight};
        keyValues(os, v, 4);
    }
}

void
keyModel(std::ostream& os, const sysid::ArxModel& model)
{
    os << "|" << model.numOutputs() << "," << model.numInputs() << ","
       << model.orderA() << "," << model.orderB() << "," << model.bLag0()
       << "," << model.sampleTime();
    for (std::size_t k = 0; k < model.orderA(); ++k) {
        const Matrix& a = model.aCoeff(k);
        keyValues(os, a.data(), a.rows() * a.cols());
    }
    for (std::size_t k = 0; k < model.orderB(); ++k) {
        const Matrix& b = model.bCoeff(k);
        keyValues(os, b.data(), b.rows() * b.cols());
    }
    for (const Vector* v :
         {&model.uMean(), &model.yMean(), &model.intercept()}) {
        keyValues(os, v->raw().data(), v->size());
    }
}

/** @return "<prefix>-<FNV-1a of @p text as 16 hex digits>". */
std::string
entryName(const std::string& prefix, const std::string& text)
{
    std::ostringstream os;
    os << prefix << "-" << std::hex << std::setw(16) << std::setfill('0')
       << obs::fnv1a(text);
    return os.str();
}

}  // namespace

std::string
ssvCacheKey(const LayerSpec& spec, const sysid::ArxModel& model,
            std::size_t num_external, const robust::DkOptions& dk)
{
    std::ostringstream os;
    os << std::setprecision(17) << "ssv|" << kFormatVersion << "|"
       << num_external << "|" << spec.inputs.size();
    keyInputs(os, spec.inputs);
    os << "|" << spec.outputs.size();
    for (const OutputSpec& out : spec.outputs) {
        const double v[] = {out.bound_fraction, out.range,
                            out.critical ? 1.0 : 0.0};
        keyValues(os, v, 3);
    }
    os << "|" << spec.guardband << "," << spec.max_order << ","
       << spec.perf_boost << "|" << dk.max_iterations << "," << dk.mu_grid
       << "," << dk.gamma_lo << "," << dk.gamma_hi << ","
       << dk.bisection_steps;
    keyModel(os, model);
    return entryName("ssv", os.str());
}

std::string
lqgCacheKey(const std::vector<SignalSpec>& inputs,
            const std::vector<double>& output_bounds,
            const sysid::ArxModel& model)
{
    std::ostringstream os;
    os << std::setprecision(17) << "lqg|" << kFormatVersion << "|"
       << inputs.size();
    keyInputs(os, inputs);
    keyValues(os, output_bounds.data(), output_bounds.size());
    keyModel(os, model);
    return entryName("lqg", os.str());
}

std::string
cacheDir()
{
    // Cache *location* may come from the environment (hermetic tests
    // redirect it); entry *names* are a pure function of the synthesis
    // inputs, so results stay environment-independent.
    // yukta-audit: allow(getenv)
    const char* env = std::getenv("YUKTA_CACHE_DIR");
    std::string dir = env != nullptr ? env : "yukta_cache";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

std::string
cachePath(const std::string& key)
{
    return cacheDir() + "/" + key + ".txt";
}

bool
atomicWriteFile(const std::string& path, const std::string& contents)
{
    static std::atomic<unsigned> counter{0};
#ifdef __unix__
    const long pid = static_cast<long>(::getpid());
#else
    const long pid = 0;
#endif
    const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                            std::to_string(counter.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            return false;
        }
        os << contents;
        os.flush();
        if (!os) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        return false;
    }
    return true;
}

bool
saveStateSpace(const std::string& path, const StateSpace& sys)
{
    std::ostringstream os;
    os << "yukta-ss " << kFormatVersion << "\n" << sys.ts << "\n";
    writeMatrix(os, sys.a);
    writeMatrix(os, sys.b);
    writeMatrix(os, sys.c);
    writeMatrix(os, sys.d);
    return atomicWriteFile(path, os.str());
}

std::optional<StateSpace>
loadStateSpace(const std::string& path)
{
    std::ifstream is(path);
    if (!is) {
        return std::nullopt;
    }
    std::string magic;
    int version = 0;
    double ts = 0.0;
    if (!(is >> magic >> version >> ts) || magic != "yukta-ss" ||
        version != kFormatVersion) {
        return std::nullopt;
    }
    Matrix a;
    Matrix b;
    Matrix c;
    Matrix d;
    if (!readMatrix(is, a) || !readMatrix(is, b) || !readMatrix(is, c) ||
        !readMatrix(is, d)) {
        return std::nullopt;
    }
    try {
        return StateSpace(a, b, c, d, ts);
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

std::string
ssvControllerToText(const robust::SsvController& ctrl)
{
    std::ostringstream os;
    os << "yukta-ssv " << kFormatVersion << "\n";
    os << std::setprecision(17);
    os << ctrl.mu_peak << " " << ctrl.min_s << " " << ctrl.gamma << " "
       << ctrl.dk_iterations << "\n";
    os << ctrl.design_bounds.size();
    for (double b : ctrl.design_bounds) {
        os << " " << b;
    }
    os << "\n" << ctrl.guaranteed_bounds.size();
    for (double b : ctrl.guaranteed_bounds) {
        os << " " << b;
    }
    os << "\n" << ctrl.k.ts << "\n";
    writeMatrix(os, ctrl.k.a);
    writeMatrix(os, ctrl.k.b);
    writeMatrix(os, ctrl.k.c);
    writeMatrix(os, ctrl.k.d);
    return os.str();
}

bool
saveSsvController(const std::string& path,
                  const robust::SsvController& ctrl)
{
    return atomicWriteFile(path, ssvControllerToText(ctrl));
}

std::optional<robust::SsvController>
ssvControllerFromText(const std::string& text)
{
    std::istringstream is(text);
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "yukta-ssv" ||
        version != kFormatVersion) {
        return std::nullopt;
    }
    robust::SsvController ctrl;
    std::size_t ndb = 0;
    std::size_t nb = 0;
    if (!(is >> ctrl.mu_peak >> ctrl.min_s >> ctrl.gamma >>
          ctrl.dk_iterations) ||
        !(is >> ndb)) {
        return std::nullopt;
    }
    ctrl.design_bounds.resize(ndb);
    for (double& b : ctrl.design_bounds) {
        if (!(is >> b)) {
            return std::nullopt;
        }
    }
    if (!(is >> nb)) {
        return std::nullopt;
    }
    ctrl.guaranteed_bounds.resize(nb);
    for (double& b : ctrl.guaranteed_bounds) {
        if (!(is >> b)) {
            return std::nullopt;
        }
    }
    double ts = 0.0;
    if (!(is >> ts)) {
        return std::nullopt;
    }
    Matrix a;
    Matrix b;
    Matrix c;
    Matrix d;
    if (!readMatrix(is, a) || !readMatrix(is, b) || !readMatrix(is, c) ||
        !readMatrix(is, d)) {
        return std::nullopt;
    }
    try {
        ctrl.k = StateSpace(a, b, c, d, ts);
    } catch (const std::exception&) {
        return std::nullopt;
    }
    return ctrl;
}

std::optional<robust::SsvController>
loadSsvController(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return ssvControllerFromText(buf.str());
}

}  // namespace yukta::core
