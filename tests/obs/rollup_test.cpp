// Streaming mergeable rollups: the fleet's shard-local accumulators.
// The load-bearing property is exactness under merge -- a histogram
// built from N shard-local instances must equal one built serially.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/rollup.h"
#include "obs/stateio.h"

namespace {

using yukta::obs::MergeableHistogram;
using yukta::obs::RunningStat;
using yukta::obs::StateReader;
using yukta::obs::StateWriter;

TEST(MergeableHistogram, CountsSumsAndExtremaTrackObservations)
{
    MergeableHistogram h({1.0, 2.0, 4.0});
    h.observe(0.5);
    h.observe(1.5);
    h.observe(3.0);
    h.observe(10.0);  // overflow bucket
    EXPECT_EQ(h.count(), 4);
    EXPECT_DOUBLE_EQ(h.sum(), 15.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxValue(), 10.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.75);
    const std::vector<long long> want{1, 1, 1, 1};
    EXPECT_EQ(h.bucketCounts(), want);
}

TEST(MergeableHistogram, EmptyHistogramReportsZeros)
{
    MergeableHistogram h({1.0});
    EXPECT_EQ(h.count(), 0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(MergeableHistogram, QuantileIsConservativeBucketUpperBound)
{
    MergeableHistogram h({1.0, 2.0, 4.0});
    for (int i = 0; i < 90; ++i) {
        h.observe(0.5);
    }
    for (int i = 0; i < 10; ++i) {
        h.observe(1.5);
    }
    // p50 lands in the first bucket: reported as its UPPER bound.
    EXPECT_DOUBLE_EQ(h.quantile(0.50), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 2.0);
    // The overflow bucket reports the exact recorded maximum.
    h.observe(100.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(MergeableHistogram, MergeIsExactAgainstSerialAccumulation)
{
    const auto bounds = [] {
        return MergeableHistogram::logSpaced(0.01, 1000.0, 9);
    };
    MergeableHistogram serial = bounds();
    MergeableHistogram shard_a = bounds();
    MergeableHistogram shard_b = bounds();
    for (int i = 0; i < 200; ++i) {
        const double v = 0.013 * static_cast<double>(i + 1);
        serial.observe(v);
        (i % 2 == 0 ? shard_a : shard_b).observe(v);
    }
    MergeableHistogram merged = bounds();
    merged.merge(shard_a);
    merged.merge(shard_b);
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.bucketCounts(), serial.bucketCounts());
    EXPECT_DOUBLE_EQ(merged.minValue(), serial.minValue());
    EXPECT_DOUBLE_EQ(merged.maxValue(), serial.maxValue());
    EXPECT_DOUBLE_EQ(merged.quantile(0.99), serial.quantile(0.99));
    // Bit-identical rendering, not just approximately equal stats.
    EXPECT_EQ(merged.toJson(), serial.toJson());
}

TEST(MergeableHistogram, MergeRejectsMismatchedBounds)
{
    MergeableHistogram a({1.0, 2.0});
    MergeableHistogram b({1.0, 3.0});
    EXPECT_THROW(a.merge(b), std::invalid_argument);
    MergeableHistogram c({1.0});
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(MergeableHistogram, ConstructorValidatesBounds)
{
    EXPECT_THROW(MergeableHistogram(std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(MergeableHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MergeableHistogram, LogSpacedPinsEndpoints)
{
    const MergeableHistogram h = MergeableHistogram::logSpaced(0.01,
                                                              1000.0, 9);
    ASSERT_FALSE(h.bounds().empty());
    EXPECT_DOUBLE_EQ(h.bounds().front(), 0.01);
    EXPECT_DOUBLE_EQ(h.bounds().back(), 1000.0);
    for (std::size_t i = 1; i < h.bounds().size(); ++i) {
        EXPECT_LT(h.bounds()[i - 1], h.bounds()[i]);
    }
}

TEST(RunningStat, AddAndMergeMatchSerial)
{
    RunningStat serial;
    RunningStat a;
    RunningStat b;
    for (int i = 0; i < 100; ++i) {
        const double v = static_cast<double>(i) - 50.0;
        serial.add(v);
        (i < 50 ? a : b).add(v);
    }
    RunningStat merged;
    merged.merge(a);
    merged.merge(b);
    EXPECT_EQ(merged.count, serial.count);
    EXPECT_DOUBLE_EQ(merged.sum, serial.sum);
    EXPECT_DOUBLE_EQ(merged.min, serial.min);
    EXPECT_DOUBLE_EQ(merged.max, serial.max);
    EXPECT_DOUBLE_EQ(merged.mean(), serial.mean());
    EXPECT_EQ(merged.toJson(), serial.toJson());
}

TEST(RunningStat, MergingAnEmptyStatIsANoOp)
{
    RunningStat s;
    s.add(2.0);
    const std::string before = s.toJson();
    s.merge(RunningStat{});
    EXPECT_EQ(s.toJson(), before);
}

TEST(Fnv1a, MatchesReferenceVectorsAndSeparatesInputs)
{
    // Standard FNV-1a 64-bit reference values.
    EXPECT_EQ(yukta::obs::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(yukta::obs::fnv1a("a"), 12638187200555641996ull);
    EXPECT_NE(yukta::obs::fnv1a("fleet"), yukta::obs::fnv1a("fleed"));
}

// A checkpoint carries the bounds as a count and a fingerprint: load
// restores the counts into a histogram built with the same bounds and
// refuses one built with other bounds instead of adopting them.
TEST(MergeableHistogram, SaveLoadKeepsConfiguredBoundsAndRefusesOthers)
{
    MergeableHistogram h = MergeableHistogram::logSpaced(0.01, 1000.0, 9);
    h.observe(0.5);
    h.observe(3.0);
    h.observe(5000.0);
    StateWriter w;
    h.state(w);
    const std::string body = w.take();

    MergeableHistogram same = MergeableHistogram::logSpaced(0.01, 1000.0, 9);
    StateReader ok(body);
    same.state(ok);
    EXPECT_TRUE(ok.atEnd());
    EXPECT_EQ(same.bounds(), h.bounds());
    EXPECT_EQ(same.bucketCounts(), h.bucketCounts());
    EXPECT_EQ(same.count(), h.count());
    EXPECT_DOUBLE_EQ(same.sum(), h.sum());
    EXPECT_DOUBLE_EQ(same.maxValue(), h.maxValue());

    // Same count of bounds, one of them moved: the fingerprint differs.
    std::vector<double> moved = h.bounds();
    moved[7] = std::nextafter(moved[7], 0.0);
    for (MergeableHistogram other :
         {MergeableHistogram::logSpaced(0.01, 1000.0, 8),
          MergeableHistogram(moved), MergeableHistogram()}) {
        StateReader r(body);
        EXPECT_THROW(other.state(r), std::runtime_error);
    }
}

}  // namespace
