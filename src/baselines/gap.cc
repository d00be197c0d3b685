#include "baselines/gap.h"

#include <cmath>
#include <vector>

#include "common/check.h"
#include "dp/mechanisms.h"
#include "linalg/ops.h"
#include "nn/mlp.h"
#include "propagation/cache.h"
#include "rng/rng.h"

namespace gcon {

Matrix TrainGapAndPredict(const Graph& graph, const Split& split,
                          double epsilon, double delta,
                          const GapOptions& options) {
  GCON_CHECK_GE(options.hops, 0);

  // 1. Edge-free encoder.
  MlpOptions enc_options;
  enc_options.dims = {graph.feature_dim(), options.encoder_hidden,
                      options.encoder_dim, graph.num_classes()};
  enc_options.hidden_activation = Activation::kTanh;
  enc_options.learning_rate = options.learning_rate;
  enc_options.weight_decay = options.weight_decay;
  enc_options.epochs = options.encoder_epochs;
  enc_options.seed = options.seed;
  Mlp encoder(enc_options);
  encoder.Train(graph.feature_csr(), graph.labels(), split.train, split.val);
  Matrix x0 = encoder.HiddenRepresentation(graph.feature_csr(),
                                           encoder.num_layers() - 1);
  RowL2NormalizeInPlace(&x0);

  // 2. PMA: K noisy aggregation hops over the raw adjacency.
  std::vector<Matrix> hops;
  hops.push_back(x0);
  if (options.hops > 0) {
    // The aggregation matrix is reused across runs/budget points; the noisy
    // hops themselves are fresh randomness every run and never cached. The
    // CachedCsr must outlive every use of the reference — it may be the
    // sole owner (cache disabled, or evicted).
    const PropagationCache::CachedCsr cached_adjacency =
        PropagationCache::Global().Adjacency(graph);
    const CsrMatrix& adjacency = *cached_adjacency.csr;
    const double sigma = ZcdpSigmaForComposition(
        options.hops, std::sqrt(2.0), epsilon, delta);
    Rng rng(options.seed + 0x6A9);
    Matrix current = x0;
    for (int k = 0; k < options.hops; ++k) {
      Matrix aggregate = adjacency.Multiply(current);
      RowL2NormalizeInPlace(&aggregate);
      GaussianNoiseInPlace(&aggregate, sigma, &rng);
      // Normalizing the noisy release is post-processing; it bounds the
      // feature scale the classification head sees (as in the GAP paper)
      // and keeps the next hop's sensitivity at sqrt(2).
      RowL2NormalizeInPlace(&aggregate);
      current = aggregate;
      hops.push_back(std::move(aggregate));
    }
  }

  // 3. Classification head on the concatenated cached hops.
  const Matrix features = ConcatCols(hops);
  MlpOptions head_options;
  head_options.dims = {static_cast<int>(features.cols()), options.head_hidden,
                       graph.num_classes()};
  head_options.hidden_activation = Activation::kRelu;
  head_options.learning_rate = options.learning_rate;
  head_options.weight_decay = options.weight_decay;
  head_options.epochs = options.head_epochs;
  head_options.seed = options.seed + 0x6AA;
  Mlp head(head_options);
  head.Train(features, graph.labels(), split.train, split.val);
  return head.Forward(features);
}

}  // namespace gcon
