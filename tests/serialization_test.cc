#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/gcon.h"
#include "core/model_io.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "model/adapters.h"
#include "nn/mlp_io.h"
#include "rng/rng.h"

namespace gcon {
namespace {

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(MlpIo, RoundTripPreservesWeightsAndPredictions) {
  MlpOptions options;
  options.dims = {5, 7, 3};
  options.hidden_activation = Activation::kTanh;
  options.seed = 3;
  Mlp original(options);

  std::stringstream stream;
  SaveMlp(original, &stream);
  Mlp loaded = LoadMlp(&stream);

  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  for (int l = 0; l < original.num_layers(); ++l) {
    EXPECT_TRUE(SameBits(loaded.weight(l), original.weight(l)));
    EXPECT_TRUE(SameBits(loaded.bias(l), original.bias(l)));
  }
  Rng rng(4);
  Matrix x(6, 5);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  EXPECT_TRUE(loaded.Forward(x).AllClose(original.Forward(x), 1e-12));
}

TEST(MlpIo, PreservesActivation) {
  for (Activation act : {Activation::kRelu, Activation::kSigmoid,
                         Activation::kIdentity}) {
    MlpOptions options;
    options.dims = {2, 3, 2};
    options.hidden_activation = act;
    Mlp original(options);
    std::stringstream stream;
    SaveMlp(original, &stream);
    Mlp loaded = LoadMlp(&stream);
    EXPECT_EQ(loaded.options().hidden_activation, act);
  }
}

struct Trained {
  Graph graph;
  Split split;
  GconPrepared prepared;
  GconModel model;
};

Trained TrainSmall() {
  const DatasetSpec spec = TinySpec();
  Rng rng(9);
  Graph graph = GenerateDataset(spec, &rng);
  Split split = MakeSplit(spec, graph, &rng);
  GconConfig config;
  config.alpha = 0.7;
  config.steps = {0, 2};
  config.encoder.hidden = 16;
  config.encoder.out_dim = 8;
  config.encoder.epochs = 100;
  config.minimize.max_iterations = 1200;
  config.seed = 11;
  GconPrepared prepared = PrepareGcon(graph, split, config);
  GconModel model = TrainPrepared(prepared, 2.0, 1e-4, 13);
  return Trained{std::move(graph), std::move(split), std::move(prepared),
                 std::move(model)};
}

TEST(ModelIo, ArtifactInferMatchesPipelineInference) {
  Trained t = TrainSmall();
  // alpha_inference only enters Eq. (16), so one trained model covers both
  // the default (alpha) and an override.
  for (const double alpha_inference : {-1.0, 0.3}) {
    t.prepared.config.alpha_inference = alpha_inference;
    const GconArtifact artifact =
        MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
    const Matrix direct = PrivateInference(t.prepared, t.model);
    const Matrix via_artifact = artifact.Infer(t.graph);
    EXPECT_TRUE(SameBits(via_artifact, direct))
        << "alpha_inference " << alpha_inference;
  }
}

TEST(ModelIo, SaveLoadRoundTrip) {
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const std::string path = "/tmp/gcon_model_io_test.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());

  EXPECT_TRUE(SameBits(loaded.theta, artifact.theta));
  EXPECT_EQ(loaded.steps, artifact.steps);
  EXPECT_DOUBLE_EQ(loaded.alpha, artifact.alpha);
  EXPECT_DOUBLE_EQ(loaded.epsilon, 2.0);
  EXPECT_DOUBLE_EQ(loaded.delta, 1e-4);
  EXPECT_NEAR(loaded.params.beta, artifact.params.beta, 1e-12);

  const Matrix before = artifact.Infer(t.graph);
  const Matrix after = loaded.Infer(t.graph);
  EXPECT_TRUE(SameBits(after, before));
}

TEST(ModelIo, LoadedModelServesNewGraph) {
  const Trained t = TrainSmall();
  const GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  const std::string path = "/tmp/gcon_model_io_test2.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());

  Rng rng(77);
  const Graph other = GenerateDataset(TinySpec(), &rng);
  const Matrix logits = loaded.Infer(other);
  EXPECT_EQ(logits.rows(), static_cast<std::size_t>(other.num_nodes()));
  std::vector<int> all;
  for (int v = 0; v < other.num_nodes(); ++v) all.push_back(v);
  EXPECT_GT(MicroF1FromLogits(logits, other.labels(), all,
                              other.num_classes()),
            1.0 / other.num_classes());
}

// Every registry method that supports persistence must round-trip
// Save -> fresh instance -> Load -> Predict with *bitwise* stable logits
// (the artifact formats write 17 significant digits, which reproduces
// doubles exactly). Methods without a serialization format must say so
// consistently: Save and Load both return false. A new adapter that gains
// Save/Load is picked up here automatically.
TEST(RegistryPersistence, SaveLoadPredictRoundTripsEveryPersistentMethod) {
  const DatasetSpec spec = TinySpec();
  Rng rng(31);
  const Graph graph = GenerateDataset(spec, &rng);
  const Split split = MakeSplit(spec, graph, &rng);

  int persistent = 0;
  for (const std::string& name : BuiltinModelRegistry().Names()) {
    ModelConfig config;
    config.Set("epsilon", "2");
    config.Set("seed", "7");
    std::unique_ptr<GraphModel> model =
        BuiltinModelRegistry().Create(name, config);
    model->Train(graph, split);
    const Matrix before = model->Predict(graph);

    const std::string path = "/tmp/gcon_registry_roundtrip_" + name + ".model";
    if (!model->Save(path)) {
      std::unique_ptr<GraphModel> fresh =
          BuiltinModelRegistry().Create(name, config);
      EXPECT_FALSE(fresh->Load(path))
          << name << ": Save unsupported but Load claims support";
      continue;
    }
    ++persistent;

    std::unique_ptr<GraphModel> loaded =
        BuiltinModelRegistry().Create(name, config);
    ASSERT_TRUE(loaded->Load(path)) << name;
    std::remove(path.c_str());
    const Matrix after = loaded->Predict(graph);
    ASSERT_EQ(after.rows(), before.rows()) << name;
    ASSERT_EQ(after.cols(), before.cols()) << name;
    EXPECT_EQ(std::memcmp(after.data(), before.data(),
                          after.size() * sizeof(double)),
              0)
        << name << ": logits drifted across the Save/Load round-trip";
  }
  // gcon (release artifact) and mlp (edge-free network) persist today.
  EXPECT_GE(persistent, 2);
}

TEST(ModelIo, HighPrecisionSurvivesRoundTrip) {
  const Trained t = TrainSmall();
  GconArtifact artifact = MakeArtifact(t.prepared, t.model, 2.0, 1e-4);
  artifact.theta(0, 0) = 1.0 / 3.0;
  artifact.theta(1, 0) = 1e-17;
  artifact.theta(2, 0) = -123456.789012345678;
  const std::string path = "/tmp/gcon_model_io_test3.model";
  SaveModel(artifact, path);
  const GconArtifact loaded = LoadModel(path);
  std::remove(path.c_str());
  EXPECT_DOUBLE_EQ(loaded.theta(0, 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(loaded.theta(1, 0), 1e-17);
  EXPECT_DOUBLE_EQ(loaded.theta(2, 0), -123456.789012345678);
}

// --- hostile-header bounds ---------------------------------------------------
// A corrupt or malicious artifact must be rejected by its *declared* sizes
// before any allocation happens — the artifact fuzz harness demonstrated
// that an unbounded `steps`/`theta`/`mlp` header turns LoadModel into an
// OOM. These mirror fuzz/corpus/artifact/huge_{steps,theta}.

std::string ArtifactWithTail(const std::string& tail) {
  return "gcon-model v1\nalpha 0.5\nalpha_inference -1\nepsilon 1\n"
         "delta 0.001\nbeta 1\nlambda_bar 0.2\nlambda_prime 0\n" +
         tail;
}

std::string LoadModelError(const std::string& text) {
  std::istringstream in(text);
  try {
    LoadModel(in, "<hostile>");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ModelIo, RejectsImplausibleStepsCountBeforeAllocating) {
  const std::string error =
      LoadModelError(ArtifactWithTail("steps 99999999999999 1\n"));
  EXPECT_NE(error.find("implausible steps count"), std::string::npos) << error;
}

TEST(ModelIo, RejectsImplausibleThetaShapeBeforeAllocating) {
  const std::string error = LoadModelError(
      ArtifactWithTail("steps 2 1 2\ntheta 999999999 999999999\n"));
  EXPECT_NE(error.find("implausible theta shape"), std::string::npos) << error;
}

TEST(ModelIo, RejectsThetaShapeWhoseProductOverflows) {
  // Each dim alone is under the per-dim cap; the product must still trip
  // the element bound instead of wrapping the allocation size.
  const std::string error = LoadModelError(
      ArtifactWithTail("steps 2 1 2\ntheta 16000000 16000000\n"));
  EXPECT_NE(error.find("implausible theta shape"), std::string::npos) << error;
}

std::string LoadMlpError(const std::string& text) {
  std::istringstream in(text);
  try {
    LoadMlp(&in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(MlpIo, RejectsImplausibleLayerCountBeforeAllocating) {
  const std::string error = LoadMlpError("mlp 99999999999999 3 3 relu\n");
  EXPECT_NE(error.find("implausible layer count"), std::string::npos) << error;
}

TEST(MlpIo, RejectsImplausibleLayerDimension) {
  const std::string error = LoadMlpError("mlp 2 999999999 3 relu\n");
  EXPECT_NE(error.find("implausible layer dimension"), std::string::npos)
      << error;
}

TEST(MlpIo, RejectsWeightShapeWhoseProductExceedsBound) {
  const std::string error = LoadMlpError("mlp 2 16000000 16000000 relu\n");
  EXPECT_NE(error.find("implausible weight shape"), std::string::npos)
      << error;
}

// --- non-finite values -------------------------------------------------------
// A loaded artifact's weights and theta must be finite: the sparse encoder
// layer skips zero features, which matches the dense GEMM's bits only when
// every weight is finite (a 0 * NaN term would otherwise vanish). The
// refusal names the defect and its index instead of calling it truncation.
// fuzz/corpus/artifact/nan_weight seeds the loader fuzzer with this case.

const char kTwoByTwoMlp[] = "mlp 2 2 2 relu\nW 0 2 2\n";

TEST(MlpIo, RejectsNonFiniteOrMalformedWeights) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "0.5x"}) {
    const std::string error = LoadMlpError(std::string(kTwoByTwoMlp) +
                                           "0.1 0.2\n" + bad + " 0.4\n");
    EXPECT_NE(error.find(std::string("non-finite or malformed value '") + bad +
                         "' at index 2 of W matrix of layer 0"),
              std::string::npos)
        << bad << ": " << error;
  }
  const std::string bias_error = LoadMlpError(
      std::string(kTwoByTwoMlp) + "0.1 0.2\n0.3 0.4\nb 0 1 2\n0 NaN\n");
  EXPECT_NE(bias_error.find("at index 1 of b matrix of layer 0"),
            std::string::npos)
      << bias_error;
}

TEST(MlpIo, TruncationIsStillReportedAsTruncation) {
  const std::string error =
      LoadMlpError(std::string(kTwoByTwoMlp) + "0.1 0.2\n0.3\n");
  EXPECT_NE(error.find("truncated W matrix of layer 0"), std::string::npos)
      << error;
}

TEST(MlpIo, AcceptsUnderflowAndExplicitPlus) {
  // The range policy istream >> double had: underflow parses as zero and a
  // leading '+' is allowed.
  std::istringstream in(std::string(kTwoByTwoMlp) +
                        "1e-400 +0.25\n-1e-400 1e-310\nb 0 1 2\n0 0\n");
  const Mlp mlp = LoadMlp(&in);
  EXPECT_EQ(mlp.weight(0)(0, 0), 0.0);
  EXPECT_EQ(mlp.weight(0)(0, 1), 0.25);
  EXPECT_TRUE(std::signbit(mlp.weight(0)(1, 0)));
  EXPECT_EQ(mlp.weight(0)(1, 1), 1e-310);
}

TEST(ModelIo, RejectsNonFiniteOrMalformedTheta) {
  for (const char* bad : {"nan", "inf", "1e999", "--1"}) {
    const std::string error = LoadModelError(ArtifactWithTail(
        std::string("steps 1 2\ntheta 2 2\n0.1 0.2\n0.3 ") + bad + "\n"));
    EXPECT_NE(error.find(std::string("non-finite or malformed value '") + bad +
                         "' at theta index 3"),
              std::string::npos)
        << bad << ": " << error;
  }
  const std::string truncated =
      LoadModelError(ArtifactWithTail("steps 1 2\ntheta 2 2\n0.1 0.2\n"));
  EXPECT_NE(truncated.find("truncated theta block (want 4 values, got 2)"),
            std::string::npos)
      << truncated;
}

TEST(ModelIo, RejectsNanWeightLikeTheFuzzSeed) {
  // The text of fuzz/corpus/artifact/nan_weight.
  const std::string error = LoadModelError(
      ArtifactWithTail("steps 1 2\ntheta 2 2\n0.1 0.2\n0.3 0.4\n") +
      std::string(kTwoByTwoMlp) + "0.1 nan\n0.3 0.4\n");
  EXPECT_NE(error.find("non-finite or malformed value 'nan' at index 1 of W "
                       "matrix of layer 0"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace gcon
