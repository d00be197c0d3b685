// Experiment-harness utilities: repeated-run statistics and the ASCII
// series tables the bench binaries print (one row per x-value, one column
// per method/series — the same axes as the paper's figures).
#ifndef GCON_EVAL_EXPERIMENT_H_
#define GCON_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "model/model.h"
#include "propagation/cache.h"

namespace gcon {

struct RunStats {
  double mean = 0.0;
  double stddev = 0.0;
  int count = 0;
};

/// Mean and sample standard deviation (n-1 denominator; 0 for n < 2).
RunStats Summarize(const std::vector<double>& values);

/// What the propagation cache did during one RunMethodRepeated call:
/// the sum of the per-run PropagationCacheStatsScope tallies, so it counts
/// exactly this call's events even when other RunMethodRepeated calls (or
/// any other cache users) are in flight on other threads. (The previous
/// scheme — diffing PropagationCache::Global().stats() across the call —
/// attributed every concurrent caller's events to this delta.) With
/// share_data (and, for methods whose pre-propagation stage is seeded, a
/// pinned "seed"), sequential execution gives `propagation_hits` =
/// runs - 1 and `hit_seconds_saved` is the propagation wall-clock the
/// cache amortized down to a single run's worth; with threads > 1 the
/// hit/miss *split* can shift (two runs racing on a cold key both build
/// it) but the total hits + misses — and every training result — cannot.
struct PropagationCacheDelta {
  std::uint64_t csr_hits = 0;
  std::uint64_t csr_misses = 0;
  std::uint64_t propagation_hits = 0;
  std::uint64_t propagation_misses = 0;
  double miss_build_seconds = 0.0;
  double hit_seconds_saved = 0.0;

  /// Merges one run's scope tally (PropagationCacheStatsScope::stats()).
  void Add(const PropagationCacheStats& stats);
};

/// Aggregate of RunMethodRepeated: per-run TrainResults plus summary
/// statistics over the test metrics.
struct MethodRunSummary {
  std::string method;
  RunStats test_micro_f1;
  RunStats test_macro_f1;
  RunStats train_seconds;
  /// Privacy budget reported by the method (identical across runs).
  double epsilon_spent = 0.0;
  double delta_spent = 0.0;
  /// Propagation-cache activity attributable to this call.
  PropagationCacheDelta cache;
  std::vector<TrainResult> runs;
};

/// Knobs for RunMethodRepeated beyond the paper's default protocol.
struct RepeatOptions {
  /// Paper protocol (false): every run draws its own graph and split from
  /// base_seed + r. True: one dataset drawn from base_seed is shared by all
  /// runs and only the model seed varies — the repeated-measurement setting
  /// where the propagation cache amortizes the per-run precomputation.
  bool share_data = false;

  /// Worker threads the runs fan out across (common/parallel.h): 1 (default)
  /// is the plain sequential loop, 0 means one per hardware thread. Every
  /// run owns its model instance and derives its Rng from base_seed + r, so
  /// the MethodRunSummary — per-run logits, metrics, and their order — is
  /// bitwise identical for any thread count; only wall clock changes.
  int threads = 1;
};

/// Trains the registered method `runs` times, each on an independently
/// generated instance of `spec` (graph, split, and — unless the caller
/// pinned a "seed" key — the model seed all re-drawn from base_seed + r),
/// and aggregates the test metrics.
/// `config` keys override the method's defaults; an absent "delta" means
/// the paper's auto rule (1/|directed E|) for the (eps, delta)-DP methods.
/// Any bench can call this instead of hand-rolling its repeat loop.
/// Throws std::invalid_argument for unknown methods or config keys.
MethodRunSummary RunMethodRepeated(const std::string& method,
                                   const ModelConfig& config,
                                   const DatasetSpec& spec, int runs,
                                   std::uint64_t base_seed,
                                   const RepeatOptions& options = {});

/// Fixed-width table keyed by an x column, used to print figure series.
class SeriesTable {
 public:
  SeriesTable(std::string title, std::string x_name,
              std::vector<std::string> series_names);

  /// Adds a row; `values` must have one entry per series (NaN allowed for
  /// "not run", printed as "-"). Optional per-cell stddevs.
  void AddRow(const std::string& x, const std::vector<double>& values,
              const std::vector<double>& stddevs = {});

  void Print(std::ostream& out) const;

  /// Machine-readable CSV (header row, mean and stddev columns per series);
  /// bench binaries emit this next to the table when GCON_BENCH_CSV is set,
  /// so plots can be regenerated without scraping the aligned output.
  void PrintCsv(std::ostream& out) const;

 private:
  std::string title_;
  std::string x_name_;
  std::vector<std::string> series_names_;
  struct Row {
    std::string x;
    std::vector<double> values;
    std::vector<double> stddevs;
  };
  std::vector<Row> rows_;
};

}  // namespace gcon

#endif  // GCON_EVAL_EXPERIMENT_H_
