// The traced release: what `gcon_cli train` does — CmdTrain's split, the
// gcon adapter's configuration, then PrepareGcon and TrainPrepared — re-run
// in-process, one public library call per stage, each timed from here.
// The artifact it writes must be byte-identical to gcon_cli's; that is what
// makes these stage times a breakdown of the untraced train_s.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <string>

#include "linalg/matrix.h"

namespace perfbench {

struct StagedRelease {
  double load_s = 0.0;         ///< LoadGraph
  double mlp_train_s = 0.0;    ///< Mlp::Train
  double mlp_forward_s = 0.0;  ///< full-graph Forward + HiddenRepresentation
  double normalize_s = 0.0;    ///< RowL2NormalizeInPlace
  double transition_s = 0.0;   ///< PropagationCache::Transition
  double propagate_s = 0.0;    ///< PropagationCache::ConcatPropagate
  double theorem1_s = 0.0;     ///< ComputePrivacyParams
  double noise_s = 0.0;        ///< SampleNoiseMatrix
  double minimize_s = 0.0;     ///< Minimize
  double save_s = 0.0;         ///< SaveModel
  double total_s = 0.0;        ///< the whole release, stages and glue
  int minimize_iters = 0;
  double grad_norm = 0.0;
  double cache_misses = 0.0;   ///< PropagationCacheStatsScope misses
  double gemm_calls = 0.0;     ///< gcon_gemm_calls_total delta
  double gemm_gflop = 0.0;     ///< gcon_gemm_flops_total delta / 1e9
  double encoder_gflop = 0.0;  ///< computed from the encoder's shapes
  double val_f1 = 0.0;         ///< validation micro-F1 of the release
  gcon::Matrix logits;         ///< Eq. (16) logits of every node

  double StageSum() const;
};

/// Runs the release on the graph file with gcon_cli train's defaults and
/// `seed`, writing the artifact to `model_path`. Clears the propagation
/// cache first, so the release runs cold, as in a fresh process.
StagedRelease RunStagedRelease(const std::string& graph_path,
                               const std::string& model_path,
                               std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
