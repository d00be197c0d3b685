// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench accepts the same environment knobs so the whole suite can be
// run at CI scale by default and at paper scale on a real machine:
//   GCON_BENCH_SCALE   dataset scale factor in (0, 1]   (default 0.25)
//   GCON_BENCH_RUNS    independent runs per point       (default 2)
//   GCON_BENCH_FULL    =1 -> scale 1.0 and 10 runs (the paper's protocol)
//   GCON_BENCH_THREADS worker threads the (method, eps) / (dataset, method)
//                      cells fan out across (default 1; 0 = all cores).
//                      Results are bitwise independent of the thread count —
//                      every cell is a deterministic function of its seeds
//                      and writes only its own slot.
//
// Note on scale: shrinking the graphs shrinks n1, and GCON's effective
// noise is B/n1 — so small scales understate GCON's advantage relative to
// mechanisms whose noise is per-node scale-free (LPGNet's degree vectors,
// GAP's aggregate perturbation). The default 0.25 keeps the paper's
// qualitative ordering from eps >= 1; the full protocol reproduces it
// everywhere.
#ifndef GCON_BENCH_BENCH_UTIL_H_
#define GCON_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/gcon.h"
#include "graph/datasets.h"
#include "graph/splits.h"
#include "model/model.h"

namespace gcon {
namespace bench {

struct BenchSettings {
  double scale = 0.25;
  int runs = 2;
  bool full = false;
  int threads = 1;  ///< cell-level fan-out (common/parallel.h semantics)
};

/// Reads the env knobs described above.
BenchSettings ReadSettings();

struct BenchData {
  DatasetSpec spec;  // already scaled
  Graph graph;
  Split split;
  double delta = 0.0;  // 1/|directed E| as in the paper
};

/// Generates the (scaled) dataset and its split. `seed` controls both the
/// graph draw and the split so runs are independent but reproducible.
BenchData LoadBenchData(const std::string& name, double scale,
                        std::uint64_t seed);

/// GCON configuration used across benches (per-dataset tweaks applied by
/// the individual binaries on top).
GconConfig DefaultGconConfig(std::uint64_t seed);

/// The methods of Figure 1 / Table III in the paper's column order. All are
/// registered in the ModelRegistry (model/adapters.h).
const std::vector<std::string>& PaperMethodOrder();

/// Bench-scale ModelConfig overrides for a registered method on `dataset`
/// (shorter epochs, the paper's per-dataset GCON tweaks, the Appendix Q
/// alpha grid). Pure data — the registry does the dispatch. Budget keys
/// (epsilon) are left to the caller; delta stays on the auto rule.
ModelConfig MethodBenchConfig(const std::string& method,
                              const std::string& dataset);

/// Micro-F1 on the bench's test split.
double TestMicroF1(const BenchData& data, const Matrix& logits);

/// Trains GCON at (epsilon, data.delta) once per candidate alpha and keeps
/// the model with the best *validation* micro-F1 (private-inference path),
/// mirroring the paper's per-setting hyperparameter search, which is not
/// charged to the privacy budget (Appendix Q). Returns the winning model's
/// logits for all nodes; `chosen_alpha` (optional) receives the winner.
Matrix TrainGconSelectAlpha(const BenchData& data,
                            const EncodedFeatures& encoded,
                            const GconConfig& base,
                            const std::vector<double>& alphas, double epsilon,
                            std::uint64_t noise_seed,
                            double* chosen_alpha = nullptr);

}  // namespace bench
}  // namespace gcon

#endif  // GCON_BENCH_BENCH_UTIL_H_
