// Privacy-utility trade-off sweep: trains GCON across a grid of privacy
// budgets on one dataset and prints the utility curve against the
// epsilon-independent MLP floor and GCN ceiling — the single-dataset
// version of Figure 1, driven entirely by the ModelRegistry and the
// RunMethodRepeated experiment helper.
//
// The grid cells (one per epsilon, plus the floor and ceiling) are
// mutually independent, so --threads fans them out across the worker pool
// (common/parallel.h). Every cell is a deterministic function of its seeds
// and writes only its own slot: the printed table is bitwise identical for
// any thread count.
//
//   ./build/epsilon_sweep [--dataset=citeseer] [--runs=3] [--threads=4]
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "eval/experiment.h"
#include "graph/datasets.h"
#include "model/adapters.h"

int main(int argc, char** argv) {
  gcon::Flags flags(argc, argv,
                    {{"dataset", "dataset name (default citeseer)"},
                     {"scale", "dataset scale factor (default 0.2)"},
                     {"runs", "independent runs per point (default 3)"},
                     {"threads", "worker threads for the sweep cells "
                                 "(default 1; 0 = all cores)"},
                     {"no-expand", "disable pseudo-label train-set expansion"}},
                    /*switches=*/{"no-expand"});
  const std::string name = flags.GetString("dataset", "citeseer");
  const double scale = flags.GetDouble("scale", 0.2);
  const int runs = flags.GetInt("runs", 3);
  const int threads = flags.GetInt("threads", 1);
  const bool expand = !flags.GetBool("no-expand", false);

  const gcon::DatasetSpec spec = gcon::Scaled(gcon::SpecByName(name), scale);
  const std::uint64_t base_seed = 11;
  const std::vector<double> epsilons = {0.5, 1.0, 2.0, 3.0, 4.0};

  // Cells 0..k-1: gcon at epsilons[i]. Cell k: the MLP floor. Cell k+1: the
  // GCN ceiling (neither depends on epsilon, so one summary each).
  const int num_cells = static_cast<int>(epsilons.size()) + 2;
  std::vector<gcon::MethodRunSummary> summaries(
      static_cast<std::size_t>(num_cells));
  gcon::ParallelFor(num_cells, threads, [&](int i) {
    const std::size_t slot = static_cast<std::size_t>(i);
    if (i == num_cells - 2) {
      summaries[slot] = gcon::RunMethodRepeated("mlp", gcon::ModelConfig(),
                                                spec, runs, base_seed);
    } else if (i == num_cells - 1) {
      summaries[slot] = gcon::RunMethodRepeated("gcn", gcon::ModelConfig(),
                                                spec, runs, base_seed);
    } else {
      gcon::ModelConfig config;
      config.Set("epsilon", gcon::FormatDouble(epsilons[slot], 6));
      config.Set("expand", expand ? "true" : "false");
      summaries[slot] =
          gcon::RunMethodRepeated("gcon", config, spec, runs, base_seed);
    }
  });
  const gcon::MethodRunSummary& mlp =
      summaries[static_cast<std::size_t>(num_cells - 2)];
  const gcon::MethodRunSummary& gcn =
      summaries[static_cast<std::size_t>(num_cells - 1)];

  gcon::SeriesTable table("GCON privacy-utility sweep on " + spec.name, "eps",
                          {"gcon", "mlp (floor)", "gcn (ceiling)"});
  for (std::size_t i = 0; i < epsilons.size(); ++i) {
    const gcon::MethodRunSummary& gcon_summary = summaries[i];
    table.AddRow(gcon::FormatDouble(epsilons[i], 1),
                 {gcon_summary.test_micro_f1.mean, mlp.test_micro_f1.mean,
                  gcn.test_micro_f1.mean},
                 {gcon_summary.test_micro_f1.stddev, mlp.test_micro_f1.stddev,
                  gcn.test_micro_f1.stddev});
  }
  table.Print(std::cout);
  std::cout << "\nInterpretation: the Theorem 1 noise shrinks as the budget\n"
               "grows, so the gcon curve climbs from the features-only MLP\n"
               "floor toward the non-private GCN ceiling (bench_fig1 runs\n"
               "the full eight-method comparison).\n";
  return 0;
}
