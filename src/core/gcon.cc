#include "core/gcon.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "core/noise.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/cache.h"
#include "propagation/sensitivity.h"
#include "rng/rng.h"

namespace gcon {
namespace {

ConvexLoss MakeLoss(const GconConfig& config, int num_classes) {
  if (config.loss_kind == ConvexLossKind::kMultiLabelSoftMargin) {
    return ConvexLoss::MultiLabelSoftMargin(num_classes);
  }
  return ConvexLoss::PseudoHuber(num_classes, config.pseudo_huber_delta);
}

// One-hot matrix for the given nodes; labels come from the graph for split
// members and from encoder pseudo-labels otherwise.
Matrix BuildTargets(const std::vector<int>& nodes,
                    const std::vector<int>& labels, int num_classes) {
  Matrix y(nodes.size(), static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const int label = labels[static_cast<std::size_t>(nodes[i])];
    GCON_CHECK_GE(label, 0);
    GCON_CHECK_LT(label, num_classes);
    y(i, static_cast<std::size_t>(label)) = 1.0;
  }
  return y;
}

}  // namespace

GconPrepared PrepareGcon(const Graph& graph, const Split& split,
                         const GconConfig& config) {
  // Step 1: encoder (Algorithm 3). Uses features/labels only.
  EncoderOptions encoder_options = config.encoder;
  encoder_options.seed = config.seed;
  return PrepareGconFromEncoded(graph, split, config,
                                TrainEncoder(graph, split, encoder_options));
}

GconPrepared PrepareGconFromEncoded(const Graph& graph, const Split& split,
                                    const GconConfig& config,
                                    const EncodedFeatures& encoded_in) {
  GCON_CHECK(!split.train.empty());
  GCON_CHECK(!config.steps.empty());
  GCON_CHECK_GT(config.alpha, 0.0);
  GCON_CHECK_LE(config.alpha, 1.0);
  EncodedFeatures encoded = encoded_in;

  GconPrepared prepared{config,
                        graph.num_classes(),
                        std::move(encoded.features),
                        CsrMatrix(),
                        Matrix(),
                        Matrix(),
                        Matrix(),
                        {},
                        0.0,
                        encoded.val_accuracy,
                        std::move(encoded.mlp)};

  // Step 2: row L2 normalization (Algorithm 1, line 2).
  RowL2NormalizeInPlace(&prepared.encoded);

  // Step 3: transition matrix and multi-scale propagation (lines 4-7),
  // memoized across runs/sweeps — both are pure functions of the graph
  // structure and the (normalized) encoder output.
  PropagationCache& cache = PropagationCache::Global();
  const PropagationCache::CachedCsr transition = cache.Transition(graph);
  prepared.transition = *transition.csr;
  prepared.z = cache.ConcatPropagate(*transition.csr, transition.key,
                                     prepared.encoded, config.steps,
                                     config.alpha);

  // Training rows: the labeled set, optionally expanded to all nodes with
  // encoder pseudo-labels (paper's n1 = n option). Pseudo-labels never leak
  // validation/test ground truth — they come from the encoder.
  std::vector<int> labels = graph.labels();
  prepared.train_nodes = split.train;
  if (config.expand_train_set) {
    std::vector<bool> in_train(static_cast<std::size_t>(graph.num_nodes()),
                               false);
    for (int v : split.train) in_train[static_cast<std::size_t>(v)] = true;
    for (int v = 0; v < graph.num_nodes(); ++v) {
      if (!in_train[static_cast<std::size_t>(v)]) {
        labels[static_cast<std::size_t>(v)] =
            encoded.predictions[static_cast<std::size_t>(v)];
        prepared.train_nodes.push_back(v);
      }
    }
  }
  prepared.z_train = GatherRows(prepared.z, prepared.train_nodes);
  prepared.y_train =
      BuildTargets(prepared.train_nodes, labels, graph.num_classes());

  // Lemma 2 closed form.
  prepared.psi_z = SensitivityZ(config.steps, config.alpha);
  return prepared;
}

GconModel TrainPrepared(const GconPrepared& prepared, double epsilon,
                        double delta, std::uint64_t noise_seed) {
  const GconConfig& config = prepared.config;
  const ConvexLoss loss = MakeLoss(config, prepared.num_classes);
  const int d = static_cast<int>(prepared.z.cols());
  const int c = prepared.num_classes;

  PrivacyInputs inputs;
  inputs.epsilon = epsilon;
  inputs.delta = delta;
  inputs.omega = config.omega;
  inputs.lambda = config.lambda;
  inputs.n1 = static_cast<int>(prepared.train_nodes.size());
  inputs.num_classes = c;
  inputs.dim = d;
  inputs.psi_z = prepared.psi_z;

  GconModel model;
  model.params = ComputePrivacyParams(inputs, loss);

  double lambda_total = model.params.lambda_total();
  double beta = model.params.beta;
  if (config.disable_noise) {
    // Ablation: same objective with B = 0, Λ′ = 0 (NOT differentially
    // private; measures the pure cost of the perturbation).
    beta = 0.0;
    lambda_total = config.lambda;
  } else if (model.params.zero_noise) {
    beta = 0.0;
  }

  Rng rng(noise_seed);
  const Matrix noise = SampleNoiseMatrix(d, c, beta, &rng);

  const PerturbedObjective objective(&prepared.z_train, &prepared.y_train,
                                     &loss, lambda_total, &noise);
  MinimizeResult opt = Minimize(objective, config.minimize);
  GCON_LOG(DEBUG) << "GCON minimize: " << opt.iterations
                  << " iters, |grad|=" << opt.gradient_norm
                  << ", obj=" << opt.objective_value;
  model.theta = std::move(opt.theta);
  opt.theta = Matrix();
  model.opt = std::move(opt);
  return model;
}

GconModel TrainGcon(const Graph& graph, const Split& split,
                    const GconConfig& config) {
  const GconPrepared prepared = PrepareGcon(graph, split, config);
  return TrainPrepared(prepared, config.epsilon, config.delta,
                       config.seed + 0x5eed);
}

Matrix EncodeForInference(const Mlp& encoder, const CsrMatrix& features) {
  Matrix encoded =
      encoder.HiddenRepresentation(features, encoder.num_layers() - 1);
  RowL2NormalizeInPlace(&encoded);
  return encoded;
}

double InferenceAlpha(double alpha, double alpha_inference) {
  return alpha_inference >= 0.0 ? alpha_inference : alpha;
}

Matrix PrivateLogits(const CsrMatrix& transition, const Matrix& encoded,
                     const std::vector<int>& steps, double alpha_inf,
                     const Matrix& theta) {
  Matrix hop;  // computed on the first m > 0
  std::vector<Matrix> blocks;
  blocks.reserve(steps.size());
  for (int m : steps) {
    if (m != 0 && hop.empty()) {
      transition.SpmmAxpby(1.0 - alpha_inf, encoded, alpha_inf, encoded,
                           &hop);
    }
    blocks.push_back(m == 0 ? encoded : hop);
  }
  return MatMul(ConcatCols(blocks), theta);
}

Matrix PrivateInference(const GconPrepared& prepared, const GconModel& model) {
  const GconConfig& config = prepared.config;
  return PrivateLogits(prepared.transition, prepared.encoded, config.steps,
                       InferenceAlpha(config.alpha, config.alpha_inference),
                       model.theta);
}

Matrix PublicInference(const GconPrepared& prepared, const GconModel& model) {
  return MatMul(prepared.z, model.theta);
}

Matrix PublicInferenceOnGraph(const GconPrepared& prepared,
                              const GconModel& model, const Graph& graph) {
  const GconConfig& config = prepared.config;
  const Matrix encoded =
      EncodeForInference(prepared.encoder_mlp, graph.feature_csr());
  PropagationCache& cache = PropagationCache::Global();
  const PropagationCache::CachedCsr transition = cache.Transition(graph);
  const Matrix z = cache.ConcatPropagate(*transition.csr, transition.key,
                                         encoded, config.steps, config.alpha);
  return MatMul(z, model.theta);
}

}  // namespace gcon
