#include "baselines/progap.h"

#include <cmath>

#include "common/check.h"
#include "dp/mechanisms.h"
#include "linalg/ops.h"
#include "nn/mlp.h"
#include "propagation/cache.h"
#include "rng/rng.h"

namespace gcon {

Matrix TrainProgapAndPredict(const Graph& graph, const Split& split,
                             double epsilon, double delta,
                             const ProgapOptions& options) {
  GCON_CHECK_GE(options.stages, 0);

  auto make_mlp_options = [&](int in_dim, std::uint64_t seed) {
    MlpOptions mlp_options;
    mlp_options.dims = {in_dim, options.hidden, options.dim,
                        graph.num_classes()};
    mlp_options.hidden_activation = Activation::kTanh;
    mlp_options.learning_rate = options.learning_rate;
    mlp_options.weight_decay = options.weight_decay;
    mlp_options.epochs = options.stage_epochs;
    mlp_options.seed = seed;
    return mlp_options;
  };

  // Stage 0: edge-free MLP on the raw features.
  Mlp stage0(make_mlp_options(graph.feature_dim(), options.seed));
  stage0.Train(graph.feature_csr(), graph.labels(), split.train, split.val);
  Matrix representation = stage0.HiddenRepresentation(
      graph.feature_csr(), stage0.num_layers() - 1);
  Matrix logits = stage0.Forward(graph.feature_csr());
  if (options.stages == 0) return logits;

  const PropagationCache::CachedCsr cached_adjacency =
      PropagationCache::Global().Adjacency(graph);
  const CsrMatrix& adjacency = *cached_adjacency.csr;
  const double sigma = ZcdpSigmaForComposition(options.stages, std::sqrt(2.0),
                                               epsilon, delta);
  Rng rng(options.seed + 0x960);

  for (int stage = 1; stage <= options.stages; ++stage) {
    // Noisy aggregation of the (unit-norm) previous representation.
    Matrix normalized = representation;
    RowL2NormalizeInPlace(&normalized);
    Matrix aggregate = adjacency.Multiply(normalized);
    RowL2NormalizeInPlace(&aggregate);
    GaussianNoiseInPlace(&aggregate, sigma, &rng);
    // Post-processing normalization bounds the noisy features' scale.
    RowL2NormalizeInPlace(&aggregate);

    // Stage MLP on [previous representation ⊕ noisy aggregate]
    // (post-processing: no extra privacy cost).
    const Matrix stage_input = ConcatCols(representation, aggregate);
    Mlp stage_mlp(make_mlp_options(static_cast<int>(stage_input.cols()),
                                   options.seed + static_cast<std::uint64_t>(stage)));
    stage_mlp.Train(stage_input, graph.labels(), split.train, split.val);
    representation = stage_mlp.HiddenRepresentation(stage_input,
                                                    stage_mlp.num_layers() - 1);
    logits = stage_mlp.Forward(stage_input);
  }
  return logits;
}

}  // namespace gcon
