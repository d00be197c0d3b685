// Figure 1 reproduction: micro-F1 versus privacy budget epsilon for GCON
// and the seven comparison methods, on all four datasets.
//
// Paper protocol: eps in {0.5, 1, 2, 3, 4}, delta = 1/|E|, 10 runs.
// Default here: scaled-down datasets and 2 runs (see bench_util.h knobs;
// GCON_BENCH_FULL=1 restores the paper scale). One table per dataset:
// rows = eps, columns = methods — the same series Figure 1 plots.
//
// Every series comes from the ModelRegistry: the bench asks each
// registered method whether it consumes the privacy budget (the MLP floor
// and GCN ceiling do not, so they run once per seed) and otherwise loops
// RunMethodRepeated over the epsilon grid. Adding a ninth method to the
// registry adds its column here without touching this file.
//
// Cost note vs the pre-registry bench: each (method, eps) point regenerates
// its dataset (same seeds, so identical graphs) and the gcon adapter
// retrains its eps-independent encoder per eps point instead of once per
// run. The PropagationCache claws back the big precomputation: run r draws
// the same graph at every eps point, so the transition build and (for
// methods whose encoder output repeats) the propagation are paid once per
// run instead of once per (run, eps). The encoder is still shared across
// the alpha_grid search — the dominant inner loop.
//
// Expected shape (paper): GCON > {GAP, ProGAP, LPGNet, DPGCN, DP-SGD} at
// every eps, with the margin largest at small eps; MLP is a flat
// eps-independent floor; GCN (non-DP) a flat ceiling; on Actor
// (heterophily) all methods compress toward the MLP.
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "eval/experiment.h"
#include "model/adapters.h"

namespace gcon {
namespace bench {
namespace {

const std::vector<double> kEpsilons = {0.5, 1.0, 2.0, 3.0, 4.0};

std::vector<std::string> DatasetsToRun() {
  const char* env = std::getenv("GCON_BENCH_DATASETS");
  if (env != nullptr && *env != '\0') {
    return SplitString(env, ',');
  }
  return {"cora_ml", "citeseer", "pubmed", "actor"};
}

void RunDataset(const std::string& name, const BenchSettings& settings) {
  Timer timer;
  const DatasetSpec spec = Scaled(SpecByName(name), settings.scale);
  const std::uint64_t base_seed = 1000;

  // One cell per (method, eps) point — eps-independent methods (the MLP
  // floor and GCN ceiling) collapse to a single cell replicated across
  // rows. Cells are mutually independent, so they fan out across the
  // worker pool (GCON_BENCH_THREADS); each writes only its own summary
  // slot and the aggregation below runs in deterministic cell order.
  struct Cell {
    std::string method;
    ModelConfig config;
    bool swept = false;
    double eps = 0.0;  // meaningful only when swept
  };
  std::vector<Cell> cells;
  for (const std::string& method : PaperMethodOrder()) {
    const ModelConfig base = MethodBenchConfig(method, name);
    // Probe (cheap, constructor only) before the fan-out: UsesPrivacyBudget
    // decides how many cells the method contributes.
    const bool swept =
        BuiltinModelRegistry().Create(method, base)->UsesPrivacyBudget();
    if (!swept) {
      cells.push_back(Cell{method, base, false, 0.0});
      continue;
    }
    for (double eps : kEpsilons) {
      ModelConfig config = base;
      config.Set("epsilon", FormatDouble(eps, 6));
      cells.push_back(Cell{method, config, true, eps});
    }
  }

  std::vector<MethodRunSummary> summaries(cells.size());
  ParallelFor(static_cast<int>(cells.size()), settings.threads, [&](int i) {
    const Cell& cell = cells[static_cast<std::size_t>(i)];
    summaries[static_cast<std::size_t>(i)] = RunMethodRepeated(
        cell.method, cell.config, spec, settings.runs, base_seed);
  });

  // scores[eps][method] -> per-run F1 values.
  std::map<double, std::map<std::string, std::vector<double>>> scores;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    for (const TrainResult& run : summaries[i].runs) {
      if (cell.swept) {
        scores[cell.eps][cell.method].push_back(run.test_micro_f1);
      } else {
        // eps-independent floor/ceiling: replicated into every row.
        for (double eps : kEpsilons) {
          scores[eps][cell.method].push_back(run.test_micro_f1);
        }
      }
    }
  }

  SeriesTable table("Figure 1 (" + name + "): micro-F1 vs epsilon", "eps",
                    PaperMethodOrder());
  for (double eps : kEpsilons) {
    std::vector<double> means, stds;
    for (const std::string& method : PaperMethodOrder()) {
      const RunStats stats = Summarize(scores[eps][method]);
      means.push_back(stats.mean);
      stds.push_back(stats.stddev);
    }
    table.AddRow(FormatDouble(eps, 1), means, stds);
  }
  table.Print(std::cout);
  if (gcon::EnvBool("GCON_BENCH_CSV", false)) table.PrintCsv(std::cout);
  std::cout << "(" << settings.runs << " runs, scale " << settings.scale
            << ", " << FormatDouble(timer.Seconds(), 1) << "s)\n\n";
}

}  // namespace
}  // namespace bench
}  // namespace gcon

int main() {
  const gcon::bench::BenchSettings settings = gcon::bench::ReadSettings();
  for (const std::string& name : gcon::bench::DatasetsToRun()) {
    gcon::bench::RunDataset(name, settings);
  }
  return 0;
}
