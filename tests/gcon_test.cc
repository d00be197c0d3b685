#include <gtest/gtest.h>

#include <cmath>

#include "core/gcon.h"
#include "core/model_io.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/transition.h"
#include "rng/rng.h"

namespace gcon {
namespace {

struct Fixture {
  Graph graph;
  Split split;
};

Fixture MakeFixture(std::uint64_t seed) {
  const DatasetSpec spec = TinySpec();
  Rng rng(seed);
  Fixture f{GenerateDataset(spec, &rng), {}};
  f.split = MakeSplit(spec, f.graph, &rng);
  return f;
}

GconConfig FastConfig() {
  GconConfig config;
  config.epsilon = 2.0;
  config.delta = 1e-4;
  config.alpha = 0.6;
  config.steps = {2};
  config.encoder.hidden = 16;
  config.encoder.out_dim = 8;
  config.encoder.epochs = 120;
  config.minimize.max_iterations = 1500;
  config.seed = 5;
  return config;
}

TEST(Encoder, ProducesExpectedShapesAndPredictions) {
  const Fixture f = MakeFixture(1);
  EncoderOptions options;
  options.hidden = 16;
  options.out_dim = 8;
  options.epochs = 120;
  const EncodedFeatures encoded = TrainEncoder(f.graph, f.split, options);
  EXPECT_EQ(encoded.features.rows(),
            static_cast<std::size_t>(f.graph.num_nodes()));
  EXPECT_EQ(encoded.features.cols(), 8u);
  EXPECT_EQ(encoded.predictions.size(),
            static_cast<std::size_t>(f.graph.num_nodes()));
  EXPECT_GT(encoded.val_accuracy, 1.0 / f.graph.num_classes())
      << "encoder should beat random chance on the validation set";
}

TEST(Encoder, PredictionsBeatChanceOnTrainSet) {
  const Fixture f = MakeFixture(2);
  EncoderOptions options;
  options.hidden = 16;
  options.out_dim = 8;
  options.epochs = 150;
  const EncodedFeatures encoded = TrainEncoder(f.graph, f.split, options);
  int correct = 0;
  for (int v : f.split.train) {
    if (encoded.predictions[static_cast<std::size_t>(v)] == f.graph.label(v)) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / f.split.train.size(), 0.6);
}

TEST(Prepare, ShapesAndSensitivity) {
  const Fixture f = MakeFixture(3);
  GconConfig config = FastConfig();
  config.steps = {0, 2};
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const int n = f.graph.num_nodes();
  EXPECT_EQ(prepared.encoded.rows(), static_cast<std::size_t>(n));
  EXPECT_EQ(prepared.z.rows(), static_cast<std::size_t>(n));
  EXPECT_EQ(prepared.z.cols(), 2u * 8u);  // s * d1
  EXPECT_EQ(prepared.z_train.rows(), f.split.train.size());
  EXPECT_EQ(prepared.y_train.cols(),
            static_cast<std::size_t>(f.graph.num_classes()));
  // Ψ(Z) = (Ψ(Z_0) + Ψ(Z_2)) / 2 with Ψ(Z_0) = 0.
  const double expected_psi =
      (0.0 + 2.0 * (1.0 - 0.6) / 0.6 * (1.0 - std::pow(0.4, 2))) / 2.0;
  EXPECT_NEAR(prepared.psi_z, expected_psi, 1e-12);
  // Encoded rows are unit-norm after normalization (non-zero rows).
  for (std::size_t i = 0; i < prepared.encoded.rows(); ++i) {
    const double norm = RowNorm2(prepared.encoded, i);
    EXPECT_TRUE(norm < 1e-9 || std::abs(norm - 1.0) < 1e-9);
  }
}

TEST(Prepare, ExpandTrainSetUsesAllNodes) {
  const Fixture f = MakeFixture(4);
  GconConfig config = FastConfig();
  config.expand_train_set = true;
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  EXPECT_EQ(prepared.train_nodes.size(),
            static_cast<std::size_t>(f.graph.num_nodes()));
  EXPECT_EQ(prepared.z_train.rows(),
            static_cast<std::size_t>(f.graph.num_nodes()));
}

TEST(Train, ProducesFiniteTheta) {
  const Fixture f = MakeFixture(5);
  const GconConfig config = FastConfig();
  const GconModel model = TrainGcon(f.graph, f.split, config);
  EXPECT_EQ(model.theta.rows(), 8u);
  EXPECT_EQ(model.theta.cols(),
            static_cast<std::size_t>(f.graph.num_classes()));
  for (std::size_t k = 0; k < model.theta.size(); ++k) {
    EXPECT_TRUE(std::isfinite(model.theta.data()[k]));
  }
  EXPECT_GT(model.params.beta, 0.0);
  EXPECT_FALSE(model.params.zero_noise);
}

TEST(Train, ThetaNormWithinCthetaBound) {
  // Lemma 9's high-probability event: every column of Θ_priv should have
  // norm <= c_θ (failure probability δ per run; with these parameters the
  // bound holds with huge margin).
  const Fixture f = MakeFixture(6);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 99);
  for (std::size_t j = 0; j < model.theta.cols(); ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < model.theta.rows(); ++i) {
      norm_sq += model.theta(i, j) * model.theta(i, j);
    }
    EXPECT_LE(std::sqrt(norm_sq), model.params.c_theta + 1e-9)
        << "column " << j;
  }
}

TEST(Train, DifferentNoiseSeedsDifferentTheta) {
  const Fixture f = MakeFixture(7);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel a = TrainPrepared(prepared, 1.0, 1e-4, 1);
  const GconModel b = TrainPrepared(prepared, 1.0, 1e-4, 2);
  EXPECT_GT(FrobeniusNorm(Sub(a.theta, b.theta)), 1e-6);
}

TEST(Train, SameSeedReproducible) {
  const Fixture f = MakeFixture(8);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel a = TrainPrepared(prepared, 1.0, 1e-4, 42);
  const GconModel b = TrainPrepared(prepared, 1.0, 1e-4, 42);
  EXPECT_TRUE(a.theta.AllClose(b.theta, 1e-12));
}

TEST(Train, UtilityBeatsChanceAtModerateBudget) {
  const Fixture f = MakeFixture(9);
  GconConfig config = FastConfig();
  config.epsilon = 4.0;
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 4.0, 1e-4, 7);
  const Matrix logits = PrivateInference(prepared, model);
  const double f1 = MicroF1FromLogits(logits, f.graph.labels(), f.split.test,
                                      f.graph.num_classes());
  EXPECT_GT(f1, 1.5 / f.graph.num_classes())
      << "should comfortably beat the 1/c random baseline";
}

TEST(Train, DisableNoiseBeatsNoisyAtTinyBudget) {
  // The non-private ablation upper-bounds the DP model (in expectation; we
  // fix seeds and use a tiny budget where the gap is large).
  const Fixture f = MakeFixture(10);
  GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);

  GconConfig no_noise = config;
  no_noise.disable_noise = true;
  const GconPrepared prepared_clean = PrepareGcon(f.graph, f.split, no_noise);
  const GconModel clean = TrainPrepared(prepared_clean, 0.05, 1e-4, 3);
  const GconModel noisy = TrainPrepared(prepared, 0.05, 1e-4, 3);

  const double f1_clean = MicroF1FromLogits(
      PrivateInference(prepared_clean, clean), f.graph.labels(), f.split.test,
      f.graph.num_classes());
  const double f1_noisy = MicroF1FromLogits(
      PrivateInference(prepared, noisy), f.graph.labels(), f.split.test,
      f.graph.num_classes());
  EXPECT_GE(f1_clean, f1_noisy - 0.05);
}

TEST(Train, AlphaOneIsZeroNoiseCase) {
  const Fixture f = MakeFixture(11);
  GconConfig config = FastConfig();
  config.alpha = 1.0;  // no propagation: Ψ = 0
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  EXPECT_DOUBLE_EQ(prepared.psi_z, 0.0);
  const GconModel model = TrainPrepared(prepared, 0.1, 1e-4, 5);
  EXPECT_TRUE(model.params.zero_noise);
}

TEST(Inference, PrivateUsesOnlyOwnEdges) {
  // Changing an edge NOT incident to node q must leave q's private-path
  // prediction unchanged (that is the privacy argument of §IV-C6: only the
  // query node's own edges are read).
  const Fixture f = MakeFixture(12);
  GconConfig config = FastConfig();
  config.steps = {1};
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 13);
  const Matrix logits = PrivateInference(prepared, model);

  // Rebuild prepared artifacts on a graph with one distant edge flipped,
  // keeping the SAME encoder/theta — only the transition matrix changes.
  Graph edited = f.graph;
  int q = f.split.test.front();
  // Find an edge not touching q.
  std::pair<int, int> target{-1, -1};
  for (const auto& edge : edited.EdgeList()) {
    if (edge.first != q && edge.second != q) {
      target = edge;
      break;
    }
  }
  ASSERT_GE(target.first, 0);
  ASSERT_TRUE(edited.RemoveEdge(target.first, target.second));

  GconPrepared edited_prepared = prepared;
  edited_prepared.transition = BuildTransition(edited);
  const Matrix edited_logits = PrivateInference(edited_prepared, model);
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    EXPECT_NEAR(logits(static_cast<std::size_t>(q), j),
                edited_logits(static_cast<std::size_t>(q), j), 1e-12);
  }
}

TEST(Inference, PublicPathUsesFullPropagation) {
  const Fixture f = MakeFixture(13);
  GconConfig config = FastConfig();
  config.steps = {5};
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 17);
  const Matrix public_logits = PublicInference(prepared, model);
  const Matrix private_logits = PrivateInference(prepared, model);
  EXPECT_EQ(public_logits.rows(), private_logits.rows());
  // With m=5 they must differ: public uses R_5, private the one-hop R̂.
  EXPECT_GT(FrobeniusNorm(Sub(public_logits, private_logits)), 1e-9);
}

TEST(Inference, StepZeroPrivateEqualsEncoderFeaturesTimesTheta) {
  const Fixture f = MakeFixture(14);
  GconConfig config = FastConfig();
  config.steps = {0};
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 1.0, 1e-4, 19);
  const Matrix logits = PrivateInference(prepared, model);
  const Matrix expected = MatMul(prepared.encoded, model.theta);
  EXPECT_TRUE(logits.AllClose(expected, 1e-12));
}

TEST(Inference, OnSeparateGraphRuns) {
  const Fixture f = MakeFixture(15);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 23);
  // A freshly generated graph from the same distribution (scenario ii).
  Rng rng(99);
  const Graph other = GenerateDataset(TinySpec(), &rng);
  const Matrix logits = MakeArtifact(prepared, model, 2.0, 1e-4).Infer(other);
  EXPECT_EQ(logits.rows(), static_cast<std::size_t>(other.num_nodes()));
  EXPECT_EQ(logits.cols(), static_cast<std::size_t>(other.num_classes()));
  const double f1 = MicroF1FromLogits(logits, other.labels(),
                                      [&] {
                                        std::vector<int> all;
                                        for (int v = 0; v < other.num_nodes(); ++v)
                                          all.push_back(v);
                                        return all;
                                      }(),
                                      other.num_classes());
  EXPECT_GT(f1, 1.0 / other.num_classes());
}

TEST(Inference, PublicOnGraphMatchesPublicOnTrainingGraph) {
  // Running the public path "on a different graph" with the training graph
  // itself must reproduce PublicInference exactly.
  const Fixture f = MakeFixture(17);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 37);
  const Matrix direct = PublicInference(prepared, model);
  const Matrix via_graph = PublicInferenceOnGraph(prepared, model, f.graph);
  EXPECT_TRUE(via_graph.AllClose(direct, 1e-9));
}

TEST(Inference, PublicOnGraphUsesFullReceptiveField) {
  const Fixture f = MakeFixture(18);
  GconConfig config = FastConfig();
  config.steps = {5};
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 41);
  Rng rng(123);
  const Graph other = GenerateDataset(TinySpec(), &rng);
  const Matrix pub = PublicInferenceOnGraph(prepared, model, other);
  const Matrix priv = MakeArtifact(prepared, model, 2.0, 1e-4).Infer(other);
  EXPECT_EQ(pub.rows(), priv.rows());
  EXPECT_GT(FrobeniusNorm(Sub(pub, priv)), 1e-9);
}

TEST(Train, AlphaInferenceOverride) {
  // alpha_inference changes the private path but not the public one.
  const Fixture f = MakeFixture(19);
  GconConfig config = FastConfig();
  config.steps = {2};
  config.alpha_inference = 0.1;
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  const GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 43);
  const Matrix with_override = PrivateInference(prepared, model);

  GconPrepared default_inf = prepared;
  default_inf.config.alpha_inference = -1.0;
  const Matrix without = PrivateInference(default_inf, model);
  EXPECT_GT(FrobeniusNorm(Sub(with_override, without)), 1e-9);
  EXPECT_TRUE(PublicInference(prepared, model)
                  .AllClose(PublicInference(default_inf, model), 1e-12));
}

TEST(Train, LbfgsMinimizerMatchesAdamPipeline) {
  const Fixture f = MakeFixture(20);
  GconConfig adam_config = FastConfig();
  adam_config.minimize.max_iterations = 6000;
  adam_config.minimize.gradient_tolerance = 1e-10;
  GconConfig lbfgs_config = adam_config;
  lbfgs_config.minimize.minimizer = Minimizer::kLbfgs;
  lbfgs_config.minimize.max_iterations = 500;

  const GconPrepared prepared = PrepareGcon(f.graph, f.split, adam_config);
  GconPrepared prepared_lbfgs = prepared;
  prepared_lbfgs.config = lbfgs_config;

  const GconModel adam_model = TrainPrepared(prepared, 2.0, 1e-4, 47);
  const GconModel lbfgs_model = TrainPrepared(prepared_lbfgs, 2.0, 1e-4, 47);
  // Same noise seed -> same objective -> same unique minimizer.
  EXPECT_TRUE(adam_model.theta.AllClose(lbfgs_model.theta, 1e-4));
  EXPECT_LT(lbfgs_model.opt.iterations, adam_model.opt.iterations);
}

TEST(Train, EpsilonSweepNoiseMonotone) {
  // The realized noise radius E||b|| = d/beta must shrink as epsilon grows.
  const Fixture f = MakeFixture(16);
  const GconConfig config = FastConfig();
  const GconPrepared prepared = PrepareGcon(f.graph, f.split, config);
  double prev_radius = 1e300;
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    const GconModel model = TrainPrepared(prepared, eps, 1e-4, 31);
    const double radius =
        static_cast<double>(prepared.z.cols()) / model.params.beta;
    EXPECT_LT(radius, prev_radius) << "eps=" << eps;
    prev_radius = radius;
  }
}

}  // namespace
}  // namespace gcon
