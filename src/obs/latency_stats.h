// Lock-free latency histogram: the serving tier's per-model latency and the
// backing store of every obs::Histogram.
//
// Record() is called on the hot path by every thread that runs a batch, so
// the store is an array of atomic counters — no mutex, no allocation.
// Buckets are geometric in microseconds: one octave per power of two,
// refined into 8 linear sub-buckets (the three bits below the leading one),
// which bounds the relative quantile error at ~12.5%. Percentiles are read
// by walking the cumulative counts and reporting the bucket's upper bound,
// so reported p50/p95/p99 never understate the true quantile.
//
// Snapshot() is safe to call concurrently with Record(); it reads each
// counter once (relaxed), so a snapshot taken mid-burst is a consistent
// *approximation*, which is all a monitoring read needs.
#ifndef GCON_OBS_LATENCY_STATS_H_
#define GCON_OBS_LATENCY_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace gcon {

class LatencyStats {
 public:
  /// Octaves 2^0..2^31 us (~36 minutes) x 8 sub-buckets.
  static constexpr int kOctaves = 32;
  static constexpr int kSubBuckets = 8;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  LatencyStats();

  /// Records one measurement, in microseconds (values < 1 land in the first
  /// bucket; values beyond the last octave saturate into the last bucket).
  void Record(double us);

  /// Bucket index a value lands in (exposed for tests).
  static int BucketIndex(std::uint64_t us);
  /// Inclusive upper bound, in us, of the values mapping to `bucket`.
  static std::uint64_t BucketUpperBound(int bucket);

  struct Snapshot {
    std::uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;

    /// "count=N mean=Xus p50=... p95=... p99=... max=..." for logs.
    std::string ToString() const;
  };

  /// Consistent-enough view of the histogram (see header comment).
  Snapshot Summarize() const;

  /// Merges `other`'s counters into this histogram (relaxed reads of
  /// `other`, like Summarize — a mid-burst merge is a consistent-enough
  /// approximation). Used to aggregate the per-model histograms of a
  /// multi-model server into one process-wide view.
  void Add(const LatencyStats& other);

  /// Zeroes every counter. Safe to call concurrently with Record()/Add():
  /// each counter is zeroed with a release store, so a racing reader that
  /// observes the zero also observes no stale pre-reset residue through it.
  /// The reset is still not atomic *across* buckets — a recording that
  /// straddles the sweep may survive partially (count without its bucket,
  /// or vice versa), which keeps a mid-burst reset a consistent-enough
  /// approximation rather than a torn read or UB. Used by benches between
  /// phases, where batches may still be running.
  void Reset();

  /// Relaxed per-bucket snapshot of the raw counters, for exposition
  /// formats (Prometheus histograms) that need the buckets themselves
  /// rather than derived percentiles. Same mid-burst approximation
  /// contract as Summarize().
  std::array<std::uint64_t, kBuckets> BucketCounts() const;

  /// Relaxed reads of the scalar counters (same contract as Summarize).
  std::uint64_t TotalCount() const;
  std::uint64_t SumUs() const;

 private:
  double PercentileLocked(const std::array<std::uint64_t, kBuckets>& counts,
                          std::uint64_t total, double q) const;

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_;
  std::atomic<std::uint64_t> count_;
  std::atomic<std::uint64_t> sum_us_;  ///< integral us; mean error < 1us
  std::atomic<std::uint64_t> max_us_;
};

}  // namespace gcon

#endif  // GCON_OBS_LATENCY_STATS_H_
