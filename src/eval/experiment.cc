#include "eval/experiment.h"

#include <cmath>
#include <iomanip>
#include <memory>
#include <ostream>

#include "common/check.h"
#include "common/parallel.h"
#include "model/adapters.h"
#include "rng/rng.h"

namespace gcon {

void PropagationCacheDelta::Add(const PropagationCacheStats& stats) {
  csr_hits += stats.csr_hits;
  csr_misses += stats.csr_misses;
  propagation_hits += stats.propagation_hits;
  propagation_misses += stats.propagation_misses;
  miss_build_seconds += stats.miss_build_seconds;
  hit_seconds_saved += stats.hit_seconds_saved;
}

RunStats Summarize(const std::vector<double>& values) {
  RunStats stats;
  stats.count = static_cast<int>(values.size());
  if (values.empty()) return stats;
  double sum = 0.0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  if (values.size() > 1) {
    double sq = 0.0;
    for (double v : values) {
      const double d = v - stats.mean;
      sq += d * d;
    }
    stats.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  }
  return stats;
}

MethodRunSummary RunMethodRepeated(const std::string& method,
                                   const ModelConfig& config,
                                   const DatasetSpec& spec, int runs,
                                   std::uint64_t base_seed,
                                   const RepeatOptions& options) {
  GCON_CHECK_GT(runs, 0) << "RunMethodRepeated needs at least one run";
  MethodRunSummary summary;
  summary.method = method;

  Graph shared_graph;
  Split shared_split;
  if (options.share_data) {
    Rng rng(base_seed);
    shared_graph = GenerateDataset(spec, &rng);
    shared_split = MakeSplit(spec, shared_graph, &rng);
  }

  // Every run writes only its own slot, so the fan-out below cannot affect
  // the aggregated summary: run r's inputs are a pure function of
  // (base_seed + r, config, spec) and its cache events are tallied by a
  // scope on the worker thread executing it.
  std::vector<TrainResult> results(static_cast<std::size_t>(runs));
  std::vector<PropagationCacheStats> run_cache(
      static_cast<std::size_t>(runs));
  ParallelFor(runs, options.threads, [&](int r) {
    PropagationCacheStatsScope scope;
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(r);
    Graph local_graph;
    Split local_split;
    if (!options.share_data) {
      Rng rng(seed);
      local_graph = GenerateDataset(spec, &rng);
      local_split = MakeSplit(spec, local_graph, &rng);
    }
    const Graph& graph = options.share_data ? shared_graph : local_graph;
    const Split& split = options.share_data ? shared_split : local_split;
    ModelConfig run_config = config;
    // A caller-pinned "seed" wins (e.g. `--set seed=N`); otherwise each run
    // gets its own model seed alongside its own data draw.
    if (!run_config.Has("seed")) {
      run_config.Set("seed", std::to_string(seed));
    }
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(method, run_config);
    results[static_cast<std::size_t>(r)] = model->Train(graph, split);
    run_cache[static_cast<std::size_t>(r)] = scope.stats();
  });

  std::vector<double> micro, macro, seconds;
  for (TrainResult& result : results) {
    micro.push_back(result.test_micro_f1);
    macro.push_back(result.test_macro_f1);
    seconds.push_back(result.train_seconds);
    summary.epsilon_spent = result.epsilon_spent;
    summary.delta_spent = result.delta_spent;
    summary.runs.push_back(std::move(result));
  }
  summary.test_micro_f1 = Summarize(micro);
  summary.test_macro_f1 = Summarize(macro);
  summary.train_seconds = Summarize(seconds);

  for (const PropagationCacheStats& stats : run_cache) {
    summary.cache.Add(stats);
  }
  return summary;
}

SeriesTable::SeriesTable(std::string title, std::string x_name,
                         std::vector<std::string> series_names)
    : title_(std::move(title)),
      x_name_(std::move(x_name)),
      series_names_(std::move(series_names)) {}

void SeriesTable::AddRow(const std::string& x,
                         const std::vector<double>& values,
                         const std::vector<double>& stddevs) {
  GCON_CHECK_EQ(values.size(), series_names_.size());
  if (!stddevs.empty()) {
    GCON_CHECK_EQ(stddevs.size(), series_names_.size());
  }
  rows_.push_back(Row{x, values, stddevs});
}

void SeriesTable::PrintCsv(std::ostream& out) const {
  out << "# " << title_ << "\n";
  out << x_name_;
  for (const auto& name : series_names_) {
    out << "," << name << "," << name << "_std";
  }
  out << "\n";
  for (const auto& row : rows_) {
    out << row.x;
    for (std::size_t j = 0; j < row.values.size(); ++j) {
      out << ",";
      if (!std::isnan(row.values[j])) out << row.values[j];
      out << ",";
      if (!row.stddevs.empty() && !std::isnan(row.stddevs[j])) {
        out << row.stddevs[j];
      }
    }
    out << "\n";
  }
  out.flush();
}

void SeriesTable::Print(std::ostream& out) const {
  const int x_width = 10;
  const int cell_width = 16;
  out << "=== " << title_ << " ===\n";
  out << std::left << std::setw(x_width) << x_name_;
  for (const auto& name : series_names_) {
    out << std::setw(cell_width) << name;
  }
  out << "\n";
  out << std::string(
             static_cast<std::size_t>(x_width) +
                 series_names_.size() * static_cast<std::size_t>(cell_width),
             '-')
      << "\n";
  for (const auto& row : rows_) {
    out << std::left << std::setw(x_width) << row.x;
    for (std::size_t j = 0; j < row.values.size(); ++j) {
      std::ostringstream cell;
      if (std::isnan(row.values[j])) {
        cell << "-";
      } else {
        cell << std::fixed << std::setprecision(4) << row.values[j];
        if (!row.stddevs.empty() && !std::isnan(row.stddevs[j])) {
          cell << "±" << std::setprecision(3) << row.stddevs[j];
        }
      }
      out << std::setw(cell_width) << cell.str();
    }
    out << "\n";
  }
  out.flush();
}

}  // namespace gcon
