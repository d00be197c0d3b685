// Process-wide metrics registry for the observability tier.
//
// Instruments register Counter/Gauge/Histogram handles once (by metric name
// + label set) and then update them lock-free from hot paths:
//   * Counter    — monotonically increasing, relaxed fetch_add;
//   * Gauge      — last-written double, relaxed store (Set) or CAS (Add);
//   * Histogram  — the LatencyStats octave/sub-bucket scheme, one relaxed
//                  fetch_add per observation.
// Registration takes a mutex (it happens once per call site, at startup or
// first use); updates through a held handle never do. Handles are stable
// pointers into deque-backed storage and stay valid for the registry's
// lifetime, so call sites cache them in function-local statics.
//
// The whole tier can be disarmed for A/B overhead measurement:
// SetMetricsEnabled(false) turns every handle update into a single relaxed
// load + branch (bench_serve's obs_overhead_qps_ratio measures exactly
// this on/off delta). Updates are dropped while disarmed; the registry's
// contents are not cleared.
//
// PrometheusText() renders the classic text exposition format — families
// sorted by name, series sorted by label string, locale-pinned numbers —
// terminated by a "# EOF" line that doubles as the end-of-response
// sentinel on the newline-JSON admin transport.
#ifndef GCON_OBS_METRICS_H_
#define GCON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/latency_stats.h"

namespace gcon {
namespace obs {

/// Global arm switch for every metric handle. Relaxed load: the only
/// consistency a monitoring counter needs is that updates eventually land.
///
/// The serving counters of `stats` (queries, batches, rejections) and
/// InferenceServer::queries_served()/batches_run() read these series, so
/// they pause with the registry while it is disarmed; only tests and
/// bench_serve's obs-off run (which reports only qps) disarm it. The
/// series are keyed by model name, so two live servers in one process
/// that serve the same model name share its series.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// label name -> value pairs, e.g. {{"model", "default"}}. Order given at
/// registration is preserved in the exposition.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!MetricsEnabled()) return;
    double seen = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(seen, seen + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  void Observe(double v) {
    if (!MetricsEnabled()) return;
    stats_.Record(v);
  }
  const LatencyStats& stats() const { return stats_; }

 private:
  LatencyStats stats_;
};

/// Name + label registry. Global() is the process-wide instance every
/// instrument uses; tests build local instances for deterministic
/// exposition goldens.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Each getter registers the (name, labels) series on first call and
  /// returns the same stable handle on every later call. `help` is the
  /// family's HELP text; the first registration wins. Registering one name
  /// as two different metric types throws std::logic_error — that is a
  /// programming error, not a runtime condition.
  Counter* counter(const std::string& name, const std::string& help,
                   const MetricLabels& labels = {});
  Gauge* gauge(const std::string& name, const std::string& help,
               const MetricLabels& labels = {});
  Histogram* histogram(const std::string& name, const std::string& help,
                       const MetricLabels& labels = {});

  /// Prometheus text exposition of every registered series, deterministic
  /// (sorted families, sorted series) and terminated by "# EOF\n".
  std::string PrometheusText() const;

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Series {
    std::string label_string;  ///< rendered "{k=\"v\",...}" or ""
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  struct Family {
    Type type = Type::kCounter;
    std::string help;
    std::map<std::string, Series> series;  ///< keyed by label_string
  };

  Family* FamilyLocked(const std::string& name, const std::string& help,
                       Type type);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
  // Handle storage: unique_ptrs give stable addresses across map growth.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace gcon

#endif  // GCON_OBS_METRICS_H_
