#include "obs/latency_stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gcon {

LatencyStats::LatencyStats() : count_(0), sum_us_(0), max_us_(0) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int LatencyStats::BucketIndex(std::uint64_t us) {
  if (us < kSubBuckets) {
    // Values 0..7: the first octave is exact (sub-bucket == value).
    return static_cast<int>(us);
  }
  int octave = 63 - __builtin_clzll(us);
  if (octave >= kOctaves) {
    return kBuckets - 1;
  }
  // Three bits below the leading one select the linear sub-bucket.
  const int sub =
      static_cast<int>((us >> (octave - 3)) & (kSubBuckets - 1));
  return octave * kSubBuckets + sub;
}

std::uint64_t LatencyStats::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) {
    return static_cast<std::uint64_t>(bucket);
  }
  const int octave = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  // Largest value whose top bits are (1, sub): one below the next
  // sub-bucket's start. Shift up before the /8 so octaves 1-2 (unreachable
  // from BucketIndex but inside the public contract) stay defined.
  return ((static_cast<std::uint64_t>(kSubBuckets + sub + 1) << octave) >>
          3) -
         1;
}

void LatencyStats::Record(double us) {
  const std::uint64_t v =
      us <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(us));
  buckets_[static_cast<std::size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_us_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

double LatencyStats::PercentileLocked(
    const std::array<std::uint64_t, kBuckets>& counts, std::uint64_t total,
    double q) const {
  if (total == 0) return 0.0;
  const std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts[static_cast<std::size_t>(b)];
    if (seen >= std::max<std::uint64_t>(target, 1)) {
      return static_cast<double>(BucketUpperBound(b));
    }
  }
  return static_cast<double>(BucketUpperBound(kBuckets - 1));
}

LatencyStats::Snapshot LatencyStats::Summarize() const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(b)];
  }
  Snapshot snap;
  snap.count = total;
  if (total > 0) {
    snap.mean_us = static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
                   static_cast<double>(total);
  }
  snap.max_us = static_cast<double>(max_us_.load(std::memory_order_relaxed));
  // Bucket upper bounds can overshoot the true maximum; clamp so the
  // reported quantiles never exceed an actually observed value.
  snap.p50_us = std::min(PercentileLocked(counts, total, 0.50), snap.max_us);
  snap.p95_us = std::min(PercentileLocked(counts, total, 0.95), snap.max_us);
  snap.p99_us = std::min(PercentileLocked(counts, total, 0.99), snap.max_us);
  return snap;
}

void LatencyStats::Add(const LatencyStats& other) {
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = other.buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
    if (n > 0) {
      buckets_[static_cast<std::size_t>(b)].fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  const std::uint64_t other_max =
      other.max_us_.load(std::memory_order_relaxed);
  std::uint64_t seen = max_us_.load(std::memory_order_relaxed);
  while (other_max > seen && !max_us_.compare_exchange_weak(
                                 seen, other_max, std::memory_order_relaxed)) {
  }
}

void LatencyStats::Reset() {
  // Release stores: a reader that acquires one of these zeros must not see
  // stale pre-reset state published through it. Record() may still land
  // either side of the sweep (see header) — that is approximation, not a
  // data race: every access stays atomic.
  for (auto& b : buckets_) b.store(0, std::memory_order_release);
  count_.store(0, std::memory_order_release);
  sum_us_.store(0, std::memory_order_release);
  max_us_.store(0, std::memory_order_release);
}

std::array<std::uint64_t, LatencyStats::kBuckets> LatencyStats::BucketCounts()
    const {
  std::array<std::uint64_t, kBuckets> counts;
  for (int b = 0; b < kBuckets; ++b) {
    counts[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
  }
  return counts;
}

std::uint64_t LatencyStats::TotalCount() const {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyStats::SumUs() const {
  return sum_us_.load(std::memory_order_relaxed);
}

std::string LatencyStats::Snapshot::ToString() const {
  std::ostringstream out;
  out << "count=" << count << " mean=" << mean_us << "us p50=" << p50_us
      << "us p95=" << p95_us << "us p99=" << p99_us << "us max=" << max_us
      << "us";
  return out.str();
}

}  // namespace gcon
