#include "stages.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/gcon.h"
#include "core/model_io.h"
#include "core/noise.h"
#include "eval/metrics.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "linalg/ops.h"
#include "model/adapters.h"
#include "obs/metrics.h"
#include "propagation/cache.h"
#include "propagation/sensitivity.h"
#include "rng/rng.h"
#include "util.h"

namespace perfbench {
namespace {

// gcon_cli train's configuration: its flag defaults (epsilon 1, alpha 0.8,
// steps 2, d1 16, hidden 32, no expansion, 500 iterations) over the gcon
// adapter's (L-BFGS to |grad| 1e-8, soft-margin loss), with the auto delta.
gcon::GconConfig CliConfig(const gcon::Graph& graph, std::uint64_t seed) {
  gcon::GconConfig config;
  config.epsilon = 1.0;
  config.delta = gcon::internal::ResolveDelta(
      gcon::internal::BudgetKeys{1.0, 0.0}, graph);
  config.alpha = 0.8;
  config.steps = {2};
  config.encoder.hidden = 32;
  config.encoder.out_dim = 16;
  config.expand_train_set = false;
  config.minimize.minimizer = gcon::Minimizer::kLbfgs;
  config.minimize.max_iterations = 500;
  config.minimize.gradient_tolerance = 1e-8;
  config.seed = seed;
  return config;
}

// CmdTrain's planetoid split (MakeCliSplit in tools/gcon_cli.cc).
gcon::Split CliSplit(const gcon::Graph& graph, std::uint64_t seed) {
  gcon::Rng rng(seed);
  return gcon::PlanetoidSplit(graph, 20, std::max(20, graph.num_nodes() / 10),
                              std::max(40, graph.num_nodes() / 5), &rng);
}

// Encoder work from its shapes: every Adam epoch runs a forward and a
// backward (weight and input gradients) pass over the training block, model
// selection runs a validation forward every `eval_every` epochs and on the
// last one, then Forward and HiddenRepresentation each run over all nodes.
double EncoderGflop(const std::vector<int>& dims, double n, double n_train,
                    double n_val, int epochs, int eval_every) {
  double forward = 0.0;
  double input_grads = 0.0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const double flops = 2.0 * dims[l] * dims[l + 1];
    forward += flops;
    if (l > 0) input_grads += flops;
  }
  int evals = 0;
  for (int e = 0; e < epochs; ++e) {
    if (e % eval_every == 0 || e + 1 == epochs) ++evals;
  }
  const double total = epochs * n_train * (2.0 * forward + input_grads) +
                       (n_val > 0 ? evals * n_val * forward : 0.0) +
                       2.0 * n * forward;
  return total / 1e9;
}

std::pair<double, double> GemmCounters() {
  const std::string text =
      gcon::obs::MetricsRegistry::Global().PrometheusText();
  return {SumSeries(text, "gcon_gemm_calls_total"),
          SumSeries(text, "gcon_gemm_flops_total")};
}

}  // namespace

double StagedRelease::StageSum() const {
  return load_s + mlp_train_s + mlp_forward_s + normalize_s + transition_s +
         propagate_s + theorem1_s + noise_s + minimize_s + save_s;
}

StagedRelease RunStagedRelease(const std::string& graph_path,
                               const std::string& model_path,
                               std::uint64_t seed) {
  StagedRelease s;
  gcon::PropagationCache& cache = gcon::PropagationCache::Global();
  cache.Clear();
  const std::pair<double, double> gemm_before = GemmCounters();
  const gcon::PropagationCacheStatsScope cache_scope;
  const double start = Now();
  double mark = start;
  auto lap = [&mark] {
    const double now = Now();
    const double elapsed = now - mark;
    mark = now;
    return elapsed;
  };

  const gcon::Graph graph = gcon::LoadGraph(graph_path);
  s.load_s = lap();
  const gcon::Split split = CliSplit(graph, seed);
  const gcon::GconConfig config = CliConfig(graph, seed);
  const int c = graph.num_classes();

  // Step 1: the encoder (TrainEncoder's body, Algorithm 3).
  gcon::MlpOptions mlp_options;
  mlp_options.dims = {graph.feature_dim(), config.encoder.hidden,
                      config.encoder.out_dim, c};
  mlp_options.hidden_activation = config.encoder.activation;
  mlp_options.learning_rate = config.encoder.learning_rate;
  mlp_options.weight_decay = config.encoder.weight_decay;
  mlp_options.epochs = config.encoder.epochs;
  mlp_options.seed = seed;
  gcon::Mlp mlp(mlp_options);
  lap();
  mlp.Train(graph.features(), graph.labels(), split.train, split.val);
  s.mlp_train_s = lap();
  const gcon::Matrix encoder_logits = mlp.Forward(graph.features());
  gcon::Matrix encoded =
      mlp.HiddenRepresentation(graph.features(), mlp.num_layers() - 1);
  s.mlp_forward_s = lap();
  const double encoder_val =
      gcon::Accuracy(encoder_logits, graph.labels(), split.val);

  // Steps 2-3 (PrepareGconFromEncoded).
  gcon::RowL2NormalizeInPlace(&encoded);
  s.normalize_s = lap();
  const gcon::PropagationCache::CachedCsr transition = cache.Transition(graph);
  s.transition_s = lap();
  const gcon::Matrix z = cache.ConcatPropagate(
      *transition.csr, transition.key, encoded, config.steps, config.alpha);
  s.propagate_s = lap();
  const gcon::Matrix z_train = gcon::GatherRows(z, split.train);
  gcon::Matrix y_train(split.train.size(), static_cast<std::size_t>(c));
  for (std::size_t i = 0; i < split.train.size(); ++i) {
    y_train(i, static_cast<std::size_t>(graph.label(split.train[i]))) = 1.0;
  }
  const double psi_z = gcon::SensitivityZ(config.steps, config.alpha);
  lap();

  // Steps 4-5 (TrainPrepared): Theorem 1, the noise draw, the minimizer.
  const gcon::ConvexLoss loss = gcon::ConvexLoss::MultiLabelSoftMargin(c);
  gcon::PrivacyInputs inputs;
  inputs.epsilon = config.epsilon;
  inputs.delta = config.delta;
  inputs.omega = config.omega;
  inputs.lambda = config.lambda;
  inputs.n1 = static_cast<int>(split.train.size());
  inputs.num_classes = c;
  inputs.dim = static_cast<int>(z.cols());
  inputs.psi_z = psi_z;
  gcon::GconModel model;
  model.params = gcon::ComputePrivacyParams(inputs, loss);
  s.theorem1_s = lap();
  const double beta = model.params.zero_noise ? 0.0 : model.params.beta;
  gcon::Rng rng(config.seed + 0x5eed);
  const gcon::Matrix noise = gcon::SampleNoiseMatrix(inputs.dim, c, beta, &rng);
  s.noise_s = lap();
  const gcon::PerturbedObjective objective(&z_train, &y_train, &loss,
                                           model.params.lambda_total(), &noise);
  gcon::MinimizeResult opt = gcon::Minimize(objective, config.minimize);
  s.minimize_s = lap();
  s.minimize_iters = opt.iterations;
  s.grad_norm = opt.gradient_norm;
  model.theta = std::move(opt.theta);
  model.opt = std::move(opt);

  // The release artifact, then the logits the adapter reports F1 from.
  const gcon::GconPrepared prepared{config,  c,           encoded,
                                    *transition.csr,      z,
                                    z_train, y_train,     split.train,
                                    psi_z,   encoder_val, mlp};
  const gcon::GconArtifact artifact =
      gcon::MakeArtifact(prepared, model, config.epsilon, config.delta);
  lap();
  gcon::SaveModel(artifact, model_path);
  s.save_s = lap();
  s.logits = gcon::PrivateInference(prepared, model);
  s.val_f1 = gcon::MicroF1FromLogits(s.logits, graph.labels(), split.val, c);
  s.total_s = Now() - start;

  s.cache_misses = static_cast<double>(cache_scope.stats().csr_misses +
                                       cache_scope.stats().propagation_misses);
  const std::pair<double, double> gemm_after = GemmCounters();
  s.gemm_calls = gemm_after.first - gemm_before.first;
  s.gemm_gflop = (gemm_after.second - gemm_before.second) / 1e9;
  s.encoder_gflop = EncoderGflop(
      mlp_options.dims, graph.num_nodes(), static_cast<double>(split.train.size()),
      static_cast<double>(split.val.size()), mlp_options.epochs,
      mlp_options.eval_every);
  return s;
}

}  // namespace perfbench
