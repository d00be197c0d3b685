#include "baselines/mlp_baseline.h"

namespace gcon {

Matrix TrainMlpAndPredict(const Graph& graph, const Split& split,
                          const MlpBaselineOptions& options,
                          std::unique_ptr<Mlp>* trained) {
  MlpOptions mlp_options;
  mlp_options.dims = {graph.feature_dim(), options.hidden,
                      graph.num_classes()};
  mlp_options.hidden_activation = Activation::kRelu;
  mlp_options.learning_rate = options.learning_rate;
  mlp_options.weight_decay = options.weight_decay;
  mlp_options.epochs = options.epochs;
  mlp_options.seed = options.seed;
  auto mlp = std::make_unique<Mlp>(mlp_options);
  mlp->Train(graph.feature_csr(), graph.labels(), split.train, split.val);
  Matrix logits = mlp->Forward(graph.feature_csr());
  if (trained != nullptr) {
    *trained = std::move(mlp);
  }
  return logits;
}

}  // namespace gcon
