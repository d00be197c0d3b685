// Table II reproduction: statistics of the four (synthetic stand-in)
// datasets — vertices, edges (directed count, as the paper reports),
// features, classes, homophily ratio — plus generator-quality diagnostics
// (mean/max degree, isolated nodes).
//
// A second table gives the Table III-style utility snapshot: test micro-F1
// of every method registered in the ModelRegistry at eps = 1 (the paper's
// headline budget), one row per dataset. The method columns come straight
// from the registry — no per-method dispatch here; a ninth registered
// method gains a column automatically. Skip it with GCON_BENCH_STATS_ONLY=1
// when only the dataset statistics are wanted.
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "graph/stats.h"
#include "model/adapters.h"
#include "rng/rng.h"

namespace {

void PrintDatasetStats(const gcon::bench::BenchSettings& settings) {
  std::cout << "=== Table II: dataset statistics (scale " << settings.scale
            << ") ===\n";
  std::cout << std::left << std::setw(10) << "dataset" << std::setw(10)
            << "vertices" << std::setw(10) << "edges" << std::setw(10)
            << "features" << std::setw(9) << "classes" << std::setw(12)
            << "homophily" << std::setw(11) << "mean_deg" << std::setw(9)
            << "max_deg" << std::setw(9) << "isolated" << "\n";
  std::cout << std::string(90, '-') << "\n";
  for (const gcon::DatasetSpec& base : gcon::PaperSpecs()) {
    const gcon::bench::BenchData data =
        gcon::bench::LoadBenchData(base.name, settings.scale, 4242);
    std::cout << std::left << std::setw(10) << base.name << std::setw(10)
              << data.graph.num_nodes() << std::setw(10)
              << 2 * data.graph.num_edges()  // directed count, as in Table II
              << std::setw(10) << data.graph.feature_dim() << std::setw(9)
              << data.graph.num_classes() << std::setw(12) << std::fixed
              << std::setprecision(3) << gcon::HomophilyRatio(data.graph)
              << std::setw(11) << std::setprecision(2)
              << gcon::MeanDegree(data.graph) << std::setw(9)
              << gcon::MaxDegree(data.graph) << std::setw(9)
              << gcon::IsolatedCount(data.graph) << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  std::cout << "\nPaper values (scale 1.0): Cora-ML 2995/16316/2879/7/0.81, "
               "CiteSeer 3327/9104/3703/6/0.71,\nPubMed 19717/88648/500/3/"
               "0.79, Actor 7600/30019/932/5/0.22. Run with GCON_BENCH_FULL=1\n"
               "to generate at paper scale.\n\n";
}

void PrintUtilitySnapshot(const gcon::bench::BenchSettings& settings) {
  const double eps = 1.0;
  // Column per registered method, paper order first, any extras appended.
  std::vector<std::string> methods = gcon::bench::PaperMethodOrder();
  for (const std::string& name : gcon::BuiltinModelRegistry().Names()) {
    bool known = false;
    for (const std::string& m : methods) known = known || m == name;
    if (!known) methods.push_back(name);
  }

  // Every (dataset, method) cell is independent: fan them out across the
  // worker pool (GCON_BENCH_THREADS), then assemble the rows in order.
  // Each cell is a deterministic function of (method, config, spec, seed),
  // so the table is bitwise identical for any thread count.
  const std::vector<gcon::DatasetSpec> specs = gcon::PaperSpecs();
  const int num_cells = static_cast<int>(specs.size() * methods.size());
  std::vector<gcon::MethodRunSummary> summaries(
      static_cast<std::size_t>(num_cells));
  gcon::ParallelFor(num_cells, settings.threads, [&](int i) {
    const std::size_t d = static_cast<std::size_t>(i) / methods.size();
    const std::size_t m = static_cast<std::size_t>(i) % methods.size();
    gcon::ModelConfig config =
        gcon::bench::MethodBenchConfig(methods[m], specs[d].name);
    config.Set("epsilon", gcon::FormatDouble(eps, 6));
    summaries[static_cast<std::size_t>(i)] = gcon::RunMethodRepeated(
        methods[m], config, gcon::Scaled(specs[d], settings.scale),
        settings.runs, /*base_seed=*/4242);
  });

  gcon::SeriesTable table("Table III snapshot: test micro-F1 at eps=" +
                              gcon::FormatDouble(eps, 1) + " (scale " +
                              gcon::FormatDouble(settings.scale, 2) + ")",
                          "dataset", methods);
  for (std::size_t d = 0; d < specs.size(); ++d) {
    std::vector<double> means, stds;
    for (std::size_t m = 0; m < methods.size(); ++m) {
      const gcon::MethodRunSummary& summary =
          summaries[d * methods.size() + m];
      means.push_back(summary.test_micro_f1.mean);
      stds.push_back(summary.test_micro_f1.stddev);
    }
    table.AddRow(specs[d].name, means, stds);
  }
  table.Print(std::cout);
  if (gcon::EnvBool("GCON_BENCH_CSV", false)) table.PrintCsv(std::cout);
}

}  // namespace

int main() {
  const gcon::bench::BenchSettings settings = gcon::bench::ReadSettings();
  PrintDatasetStats(settings);
  if (!gcon::EnvBool("GCON_BENCH_STATS_ONLY", false)) {
    PrintUtilitySnapshot(settings);
  }
  return 0;
}
