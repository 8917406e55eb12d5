#ifndef YUKTA_OBS_METRICS_H_
#define YUKTA_OBS_METRICS_H_

/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * histograms with lock-free hot paths (atomics) and a mutex only on
 * first registration. Unlike trace events (obs/trace.h), metrics may
 * carry wall-clock quantities — they are operational telemetry about
 * the *runner process* (tick latency, run wall time, retries), never
 * part of a run's deterministic trace. Snapshots are name-sorted so
 * their rendering is stable.
 */

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace yukta::obs {

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    /** Adds @p delta (default 1). */
    void add(long long delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** @return the current count. */
    long long value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<long long> value_{0};
};

/** Last-write-wins floating-point metric. */
class Gauge
{
  public:
    /** Sets the gauge to @p v. */
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** @return the current value. */
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** Fixed-bucket histogram (bounds set at registration). */
class Histogram
{
  public:
    /**
     * @param bounds ascending upper bucket bounds; an implicit
     * overflow bucket catches everything above the last bound.
     */
    explicit Histogram(std::vector<double> bounds);

    /** Records one observation. */
    void observe(double v);

    /** @return total observations. */
    long long count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** @return sum of all observations. */
    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** @return the bucket bounds given at construction. */
    const std::vector<double>& bounds() const { return bounds_; }

    /** @return per-bucket counts (bounds().size() + 1 entries). */
    std::vector<long long> bucketCounts() const;

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<long long>[]> buckets_;
    std::atomic<long long> count_{0};
    std::atomic<double> sum_{0.0};
};

/** One rendered metric in a snapshot. */
struct MetricSample
{
    std::string name;
    std::string type;   ///< "counter" | "gauge" | "histogram".
    double value = 0.0; ///< Count / gauge value / histogram sum.
    long long count = 0;  ///< Histogram observation count.
};

/** Named metric registry; instruments are created on first use. */
class MetricsRegistry
{
  public:
    /** @return the counter named @p name (created on first use). */
    Counter& counter(const std::string& name);

    /** @return the gauge named @p name (created on first use). */
    Gauge& gauge(const std::string& name);

    /**
     * @return the histogram named @p name; @p bounds applies only on
     * first use (later calls return the existing instrument).
     */
    Histogram& histogram(const std::string& name,
                         std::vector<double> bounds = {});

    /** @return a name-sorted snapshot of every registered metric. */
    std::vector<MetricSample> snapshot() const;

    /** @return the snapshot rendered as one JSON object. */
    std::string snapshotJson() const;

    /** Drops every registered instrument (tests only). */
    void clear();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** @return the process-wide registry. */
MetricsRegistry& globalMetrics();

}  // namespace yukta::obs

#endif  // YUKTA_OBS_METRICS_H_
