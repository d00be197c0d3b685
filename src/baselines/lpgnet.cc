#include "baselines/lpgnet.h"

#include <vector>

#include "common/check.h"
#include "dp/mechanisms.h"
#include "linalg/ops.h"
#include "nn/mlp.h"
#include "rng/rng.h"

namespace gcon {
namespace {

// n x c matrix of neighbor counts per predicted class.
Matrix DegreeVectors(const Graph& graph, const std::vector<int>& predicted) {
  Matrix dv(static_cast<std::size_t>(graph.num_nodes()),
            static_cast<std::size_t>(graph.num_classes()));
  for (int v = 0; v < graph.num_nodes(); ++v) {
    for (int u : graph.Neighbors(v)) {
      dv(static_cast<std::size_t>(v),
         static_cast<std::size_t>(predicted[static_cast<std::size_t>(u)])) +=
          1.0;
    }
  }
  return dv;
}

Mlp MakeStackMlp(const Graph& graph, int in_dim, const LpgnetOptions& options,
                 std::uint64_t seed) {
  MlpOptions mlp_options;
  mlp_options.dims = {in_dim, options.hidden, graph.num_classes()};
  mlp_options.hidden_activation = Activation::kRelu;
  mlp_options.learning_rate = options.learning_rate;
  mlp_options.weight_decay = options.weight_decay;
  mlp_options.epochs = options.epochs;
  mlp_options.seed = seed;
  return Mlp(mlp_options);
}

}  // namespace

Matrix TrainLpgnetAndPredict(const Graph& graph, const Split& split,
                             double epsilon, const LpgnetOptions& options) {
  GCON_CHECK_GE(options.stacks, 0);

  // Stack 0: edge-free MLP.
  Mlp mlp0 = MakeStackMlp(graph, graph.feature_dim(), options, options.seed);
  mlp0.Train(graph.feature_csr(), graph.labels(), split.train, split.val);
  Matrix logits = mlp0.Forward(graph.feature_csr());
  std::vector<int> predicted(logits.rows());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    predicted[i] = static_cast<int>(RowArgMax(logits, i));
  }
  if (options.stacks == 0) return logits;

  const double eps_per_stack = epsilon / options.stacks;
  Rng rng(options.seed + 0x196);
  // Subsequent stacks see the graph ONLY through the noisy degree vectors,
  // plus the previous stack's hidden embedding (the "smaller matrix that
  // compresses the information" of the original features) — raw features are
  // not re-fed, which is why LPGNet can fall below the plain MLP when the
  // degree vectors are noise-dominated, as the paper's Figure 1 shows.
  Matrix embedding = mlp0.HiddenRepresentation(graph.feature_csr(), 1);
  std::vector<Matrix> degree_blocks;

  for (int stack = 1; stack <= options.stacks; ++stack) {
    Matrix dv = DegreeVectors(graph, predicted);
    // One edge changes two cells by 1 each -> L1 sensitivity 2.
    LaplaceMechanismInPlace(&dv, 2.0, eps_per_stack, &rng);
    RowL2NormalizeInPlace(&dv);
    degree_blocks.push_back(std::move(dv));

    std::vector<Matrix> blocks = {embedding};
    for (const Matrix& block : degree_blocks) blocks.push_back(block);
    const Matrix stacked = ConcatCols(blocks);
    Mlp mlp = MakeStackMlp(graph, static_cast<int>(stacked.cols()), options,
                           options.seed + static_cast<std::uint64_t>(stack));
    mlp.Train(stacked, graph.labels(), split.train, split.val);
    logits = mlp.Forward(stacked);
    predicted = mlp.Predict(stacked);
    embedding = mlp.HiddenRepresentation(stacked, 1);
  }
  return logits;
}

}  // namespace gcon
