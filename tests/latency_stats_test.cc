// LatencyStats property suite.
//
// The Prometheus exposition renders histogram buckets via
// BucketUpperBound(BucketIndex(value)), so these two functions carry a
// format-facing contract: the bound must never understate the value, the
// index must be stable, and quantiles derived from the buckets must never
// understate the true quantile. The properties are swept across 2^0..2^20
// us rather than spot-checked. Also pins the Reset() memory-ordering
// contract with a TSan-aimed concurrent Record/Add/Reset/Summarize hammer.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/latency_stats.h"

namespace gcon {
namespace {

TEST(LatencyStatsTest, BucketBoundNeverUnderstatesSweep) {
  // Exhaustive below 4096, then every octave boundary's neighborhood up to
  // 2^20 — covers the exact-index region (<8), the generic octave math,
  // and the off-by-one-prone edges at each power of two.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 4096; ++v) values.push_back(v);
  for (int shift = 12; shift <= 20; ++shift) {
    const std::uint64_t base = 1ull << shift;
    for (std::uint64_t delta = 0; delta < 16; ++delta) {
      values.push_back(base - delta - 1);
      values.push_back(base + delta);
    }
  }
  int prev_index = -1;
  std::uint64_t prev_value = 0;
  for (std::uint64_t v : values) {
    const int index = LatencyStats::BucketIndex(v);
    ASSERT_GE(index, 0) << v;
    ASSERT_LT(index, LatencyStats::kBuckets) << v;
    ASSERT_LE(v, LatencyStats::BucketUpperBound(index)) << v;
    // BucketIndex is monotone in the value (values is built ascending
    // within each region; only compare within ascending runs).
    if (v >= prev_value) {
      ASSERT_GE(index, prev_index) << v;
    }
    prev_index = index;
    prev_value = v;
  }
}

TEST(LatencyStatsTest, BucketBoundRoundTripsThroughIndex) {
  // Every reachable bucket's upper bound must map back to that bucket.
  // Buckets 8..23 are unreachable by construction: BucketIndex(us) for
  // us < 8 returns us directly, and the first generic octave (us >= 8)
  // starts at index 24 (octave 3 * 8 sub-buckets).
  for (int b = 0; b < LatencyStats::kBuckets; ++b) {
    if (b >= 8 && b < 24) continue;
    EXPECT_EQ(LatencyStats::BucketIndex(LatencyStats::BucketUpperBound(b)), b)
        << "bucket " << b;
  }
}

TEST(LatencyStatsTest, QuantilesNeverUnderstate) {
  LatencyStats stats;
  for (int us = 1; us <= 1000; ++us) {
    stats.Record(static_cast<double>(us));
  }
  const LatencyStats::Snapshot snapshot = stats.Summarize();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_DOUBLE_EQ(snapshot.mean_us, 500.5);
  EXPECT_DOUBLE_EQ(snapshot.max_us, 1000.0);
  // Reported percentiles are bucket upper bounds: >= the true quantile,
  // and clamped to the observed max.
  EXPECT_GE(snapshot.p50_us, 500.0);
  EXPECT_GE(snapshot.p95_us, 950.0);
  EXPECT_GE(snapshot.p99_us, 990.0);
  EXPECT_LE(snapshot.p50_us, snapshot.max_us);
  EXPECT_LE(snapshot.p95_us, snapshot.max_us);
  EXPECT_LE(snapshot.p99_us, snapshot.max_us);
  EXPECT_LE(snapshot.p50_us, snapshot.p95_us);
  EXPECT_LE(snapshot.p95_us, snapshot.p99_us);
}

TEST(LatencyStatsTest, NegativeAndSaturatingValuesClamp) {
  LatencyStats stats;
  stats.Record(-5.0);   // clamps to 0
  stats.Record(1e18);   // saturates into the last bucket
  const auto counts = stats.BucketCounts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[LatencyStats::kBuckets - 1], 1u);
  EXPECT_EQ(stats.TotalCount(), 2u);
}

TEST(LatencyStatsTest, ResetZeroesEverything) {
  LatencyStats stats;
  stats.Record(10.0);
  stats.Record(500.0);
  stats.Reset();
  EXPECT_EQ(stats.TotalCount(), 0u);
  EXPECT_EQ(stats.SumUs(), 0u);
  const LatencyStats::Snapshot snapshot = stats.Summarize();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.max_us, 0.0);
  for (const std::uint64_t c : stats.BucketCounts()) {
    EXPECT_EQ(c, 0u);
  }
}

TEST(LatencyStatsTest, ConcurrentRecordAddResetSummarizeIsRaceFree) {
  // TSan target for the Reset() contract: recorders, an aggregator, and a
  // resetter all run concurrently. Values are asserted only after
  // quiescing — mid-burst views are approximations by contract, the test
  // is that no access is a data race.
  LatencyStats stats;
  LatencyStats aggregate;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < 2000; ++i) {
        stats.Record(static_cast<double>((t + 1) * (i % 100 + 1)));
      }
    });
  }
  threads.emplace_back([&stats, &aggregate] {
    for (int i = 0; i < 200; ++i) {
      aggregate.Add(stats);
      (void)stats.Summarize();
      (void)stats.BucketCounts();
    }
  });
  threads.emplace_back([&stats] {
    for (int i = 0; i < 100; ++i) {
      stats.Reset();
    }
  });
  for (auto& thread : threads) thread.join();

  // Quiesced: a final Reset leaves a provably empty histogram.
  stats.Reset();
  EXPECT_EQ(stats.TotalCount(), 0u);
  EXPECT_EQ(stats.Summarize().count, 0u);
}

}  // namespace
}  // namespace gcon
