#ifndef YUKTA_OBS_ROLLUP_H_
#define YUKTA_OBS_ROLLUP_H_

/**
 * @file
 * Streaming, mergeable metric rollups for fleet-scale runs.
 *
 * A 1000-board fleet at 500 ms ticks produces far too many per-tick
 * events to materialize; instead each shard accumulates its own
 * MergeableHistogram / RunningStat instances (shared-nothing, no
 * atomics on the hot path) and the coordinator merges them in board
 * index order after the parallel phase. Merging is exact: a rollup
 * built from N shard-local instances is bit-identical to one built
 * serially from the same observation stream, because only counts and
 * compensated-order-free sums cross the merge boundary (bucket counts
 * are integers; sums are added in deterministic shard order).
 *
 * Unlike obs::Histogram (process-wide operational telemetry, atomic,
 * wall-clock friendly) these types are deterministic run *results*:
 * they carry simulated-time quantities only and participate in run
 * digests, so nothing here may read a clock (yukta-lint rule
 * wall-clock).
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stateio.h"

namespace yukta::obs {

/**
 * Fixed-bound streaming histogram that merges exactly. Bounds are
 * ascending upper bucket bounds; observations above the last bound
 * land in an implicit overflow bucket. Quantiles are resolved to the
 * conservative (upper) bucket bound, so they are deterministic and
 * merge-order independent.
 */
class MergeableHistogram
{
  public:
    MergeableHistogram() = default;

    /** @param bounds ascending upper bucket bounds (at least one). */
    explicit MergeableHistogram(std::vector<double> bounds);

    /**
     * @return a histogram with @p per_decade log-spaced buckets per
     * decade covering [lo, hi] (lo, hi > 0).
     */
    static MergeableHistogram logSpaced(double lo, double hi,
                                        std::size_t per_decade);

    /** Records one observation. */
    void observe(double v);

    /**
     * Adds @p other bucket-by-bucket.
     * @throws std::invalid_argument when the bounds differ.
     */
    void merge(const MergeableHistogram& other);

    /** @return total observations. */
    long long count() const { return count_; }

    /** @return sum of all observations. */
    double sum() const { return sum_; }

    /** @return smallest observation (0 when empty). */
    double minValue() const { return count_ > 0 ? min_ : 0.0; }

    /** @return largest observation (0 when empty). */
    double maxValue() const { return count_ > 0 ? max_ : 0.0; }

    /** @return arithmetic mean (0 when empty). */
    double mean() const
    {
        return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * @return the upper bound of the bucket containing the q-quantile
     * (q in [0, 1]); the exact recorded maximum for the overflow
     * bucket, 0 when empty. Conservative: never under-reports.
     */
    double quantile(double q) const;

    /** @return the bucket bounds. */
    const std::vector<double>& bounds() const { return bounds_; }

    /** @return per-bucket counts (bounds().size() + 1 entries). */
    const std::vector<long long>& bucketCounts() const { return counts_; }

    /**
     * @return this histogram as one canonical JSON object (counts,
     * sum, min/max, p50/p90/p99/p999); deterministic rendering via
     * canonicalNumber.
     */
    std::string toJson() const;

    /**
     * Appends the histogram state to @p w. The bounds, which the
     * owner's configuration fixes, go in as their count and an FNV-1a
     * fingerprint of their bit patterns, not as values.
     */
    void save(StateWriter& w) const;

    /**
     * Restores the counts written by save into a histogram built with
     * the same bounds.
     * @throws std::runtime_error when this histogram's bounds differ
     * from the saved one's.
     */
    void load(StateReader& r);

  private:
    std::vector<double> bounds_;
    std::vector<long long> counts_;  ///< bounds_.size() + 1 entries.
    long long count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Mergeable count/sum/min/max accumulator for scalar series. */
struct RunningStat
{
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    /** Records one observation. */
    void add(double v);

    /** Adds @p other (deterministic when call order is fixed). */
    void merge(const RunningStat& other);

    /** @return arithmetic mean (0 when empty). */
    double mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }

    /** @return canonical JSON object for this stat. */
    std::string toJson() const;

    /** Appends the stat's fields to @p w. */
    void save(StateWriter& w) const;

    /** Restores state written by save. */
    void load(StateReader& r);
};

/**
 * FNV-1a over @p text; the fleet digests its deterministic metric
 * rendering with this to make "bit-identical for 1-vs-N workers"
 * checkable as one integer comparison.
 */
std::uint64_t fnv1a(std::string_view text);

}  // namespace yukta::obs

#endif  // YUKTA_OBS_ROLLUP_H_
