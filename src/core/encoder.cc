#include "core/encoder.h"

#include "common/check.h"
#include "linalg/ops.h"

namespace gcon {

EncodedFeatures TrainEncoder(const Graph& graph, const Split& split,
                             const EncoderOptions& options) {
  GCON_CHECK(!split.train.empty());
  GCON_CHECK_GT(graph.feature_dim(), 0);

  MlpOptions mlp_options;
  mlp_options.dims = {graph.feature_dim(), options.hidden, options.out_dim,
                      graph.num_classes()};
  mlp_options.hidden_activation = options.activation;
  mlp_options.learning_rate = options.learning_rate;
  mlp_options.weight_decay = options.weight_decay;
  mlp_options.epochs = options.epochs;
  mlp_options.seed = options.seed;

  EncodedFeatures out{Matrix(), {}, -1.0, Mlp(mlp_options)};
  out.mlp.Train(graph.feature_csr(), graph.labels(), split.train, split.val);

  const Matrix logits = out.mlp.Forward(graph.feature_csr());
  out.predictions.resize(static_cast<std::size_t>(graph.num_nodes()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    out.predictions[static_cast<std::size_t>(v)] =
        static_cast<int>(RowArgMax(logits, static_cast<std::size_t>(v)));
  }
  if (!split.val.empty()) {
    out.val_accuracy = Accuracy(logits, graph.labels(), split.val);
  }
  // Penultimate layer = last hidden representation (d1-dimensional).
  out.features = out.mlp.HiddenRepresentation(graph.feature_csr(),
                                              out.mlp.num_layers() - 1);
  return out;
}

}  // namespace gcon
