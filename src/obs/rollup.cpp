#include "obs/rollup.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/trace.h"

namespace yukta::obs {

MergeableHistogram::MergeableHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    if (bounds_.empty()) {
        throw std::invalid_argument(
            "MergeableHistogram needs at least one bound");
    }
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (!(bounds_[i] > bounds_[i - 1])) {
            throw std::invalid_argument(
                "MergeableHistogram bounds must ascend");
        }
    }
}

MergeableHistogram
MergeableHistogram::logSpaced(double lo, double hi, std::size_t per_decade)
{
    if (!(lo > 0.0) || !(hi > lo) || per_decade == 0) {
        throw std::invalid_argument(
            "logSpaced needs hi > lo > 0 and per_decade > 0");
    }
    const double decades = std::log10(hi / lo);
    const auto n = static_cast<std::size_t>(
        std::ceil(decades * static_cast<double>(per_decade)));
    std::vector<double> bounds;
    bounds.reserve(n + 1);
    const double step = 1.0 / static_cast<double>(per_decade);
    // Endpoints pinned exactly; interior points from one pow() each so
    // the grid is a pure function of (lo, hi, per_decade).
    bounds.push_back(lo);
    for (std::size_t i = 1; i < n; ++i) {
        bounds.push_back(
            lo * std::pow(10.0, static_cast<double>(i) * step));
    }
    bounds.push_back(hi);
    return MergeableHistogram(std::move(bounds));
}

void
MergeableHistogram::observe(double v)
{
    if (std::isnan(v)) {
        return;  // NaN never lands in a bucket; drop it deterministically.
    }
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    counts_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
MergeableHistogram::merge(const MergeableHistogram& other)
{
    if (bounds_ != other.bounds_) {
        throw std::invalid_argument(
            "MergeableHistogram::merge: bucket bounds differ");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += other.counts_[i];
    }
    if (other.count_ > 0) {
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            min_ = std::min(min_, other.min_);
            max_ = std::max(max_, other.max_);
        }
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double
MergeableHistogram::quantile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<long long>(
        std::ceil(q * static_cast<double>(count_)));
    long long seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            // Overflow bucket has no upper bound: report the exact max.
            return i < bounds_.size() ? bounds_[i] : max_;
        }
    }
    return max_;
}

std::string
MergeableHistogram::toJson() const
{
    std::ostringstream os;
    os << "{\"count\":" << count_ << ",\"sum\":" << canonicalNumber(sum_)
       << ",\"min\":" << canonicalNumber(minValue())
       << ",\"max\":" << canonicalNumber(maxValue())
       << ",\"mean\":" << canonicalNumber(mean())
       << ",\"p50\":" << canonicalNumber(quantile(0.50))
       << ",\"p90\":" << canonicalNumber(quantile(0.90))
       << ",\"p99\":" << canonicalNumber(quantile(0.99))
       << ",\"p999\":" << canonicalNumber(quantile(0.999)) << "}";
    return os.str();
}

namespace {

/** @return FNV-1a over the little-endian bit patterns of @p bounds. */
std::uint64_t
boundsFingerprint(const std::vector<double>& bounds)
{
    std::string bytes;
    bytes.reserve(8 * bounds.size());
    for (const double b : bounds) {
        auto bits = std::bit_cast<std::uint64_t>(b);
        for (int i = 0; i < 8; ++i, bits >>= 8) {
            bytes += static_cast<char>(bits & 0xff);
        }
    }
    return fnv1a(bytes);
}

}  // namespace

template <class Io>
void
MergeableHistogram::state(Io& io)
{
    io.expect("hist.bounds", bounds_.size());
    io.expect("hist.bounds_fnv1a", boundsFingerprint(bounds_));
    io.intvec("hist.counts", counts_);
    if constexpr (Io::kLoading) {
        if (counts_.size() != bounds_.size() + 1) {
            throw std::runtime_error(
                "MergeableHistogram: bucket count mismatch");
        }
    }
    io.i64("hist.count", count_);
    io.f64("hist.sum", sum_);
    io.f64("hist.min", min_);
    io.f64("hist.max", max_);
}

template void MergeableHistogram::state(StateWriter&);
template void MergeableHistogram::state(StateReader&);

void
RunningStat::add(double v)
{
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    ++count;
    sum += v;
}

void
RunningStat::merge(const RunningStat& other)
{
    if (other.count > 0) {
        if (count == 0) {
            min = other.min;
            max = other.max;
        } else {
            min = std::min(min, other.min);
            max = std::max(max, other.max);
        }
    }
    count += other.count;
    sum += other.sum;
}

std::string
RunningStat::toJson() const
{
    std::ostringstream os;
    os << "{\"count\":" << count << ",\"sum\":" << canonicalNumber(sum)
       << ",\"min\":" << canonicalNumber(count > 0 ? min : 0.0)
       << ",\"max\":" << canonicalNumber(count > 0 ? max : 0.0)
       << ",\"mean\":" << canonicalNumber(mean()) << "}";
    return os.str();
}

template <class Io>
void
RunningStat::state(Io& io)
{
    io.i64("stat.count", count);
    io.f64("stat.sum", sum);
    io.f64("stat.min", min);
    io.f64("stat.max", max);
}

template void RunningStat::state(StateWriter&);
template void RunningStat::state(StateReader&);

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace yukta::obs
