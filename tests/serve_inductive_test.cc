// Inductive (feature-carrying) serving: a query shipping an unseen node's
// raw features + edge list must be answered bitwise identically to running
// offline inference on the graph augmented with that node — across seeds,
// step configurations, batch compositions, and with the propagation cache
// both enabled and disabled. Registry models that publish a release
// artifact get the same path; models that don't must reject the query.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "graph/datasets.h"
#include "model/adapters.h"
#include "nn/mlp.h"
#include "propagation/cache.h"
#include "rng/rng.h"
#include "serve_test_util.h"
#include "serve/inference_session.h"
#include "serve/server.h"

namespace gcon {
namespace {

using serve_test::AugmentGraph;
using serve_test::SyntheticArtifact;
using serve_test::TestGraph;

std::vector<double> RandomFeatures(int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> features(static_cast<std::size_t>(dim));
  for (double& f : features) f = rng.Uniform(0.0, 1.0);
  return features;
}

bool BitwiseEqual(const double* a, const std::vector<double>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(double)) == 0;
}

// --- The core equivalence: serve(features, edges) == offline(augmented) ---

TEST(ServeInductive, MatchesOfflineInferenceOnAugmentedGraph) {
  const Graph graph = TestGraph();
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    for (const std::vector<int>& steps :
         {std::vector<int>{2}, std::vector<int>{0, 2, 4}}) {
      const GconArtifact artifact = SyntheticArtifact(graph, steps, 8, seed);
      const InferenceSession session(artifact, graph);

      const std::vector<double> features =
          RandomFeatures(graph.feature_dim(), seed + 100);
      const std::vector<int> edges = {0, 5, static_cast<int>(seed) % 40, 77};

      ServeRequest request;
      request.has_features = true;
      request.features = features;
      request.has_edges = true;
      request.edges = edges;
      const std::vector<double> served = session.QueryLogits(request);

      const Graph augmented = AugmentGraph(graph, features, edges);
      const Matrix offline = artifact.Infer(augmented);
      ASSERT_EQ(offline.rows(),
                static_cast<std::size_t>(graph.num_nodes()) + 1);
      EXPECT_TRUE(BitwiseEqual(
          offline.RowPtr(static_cast<std::size_t>(graph.num_nodes())),
          served))
          << "seed " << seed << " steps " << steps.size();
    }
  }
}

TEST(ServeInductive, MatchesOfflineAtBagOfWordsDensity) {
  // TinySpec's features are 0.2 dense, so the tests above run the encoder's
  // dense first layer. Bag-of-words features at cora_ml's density (0.012)
  // take the sparse one: at session load, for the query row, and in
  // offline Infer. 600 features span three GEMM k-slabs.
  DatasetSpec spec = TinySpec();
  spec.num_features = 600;
  spec.feature_density = 0.012;
  for (const std::uint64_t seed : {5u, 21u}) {
    Rng rng(seed);
    const Graph graph = GenerateDataset(spec, &rng);
    const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, seed);
    const InferenceSession session(artifact, graph);

    ServeRequest request;
    request.has_features = true;
    request.features.assign(600, 0.0);
    for (double& f : request.features) {
      if (rng.Bernoulli(0.012)) f = 1.0;
    }
    request.has_edges = true;
    request.edges = {1, 7, static_cast<int>(seed) % 40};
    const std::vector<double> served = session.QueryLogits(request);

    const Matrix offline =
        artifact.Infer(AugmentGraph(graph, request.features, request.edges));
    EXPECT_TRUE(BitwiseEqual(
        offline.RowPtr(static_cast<std::size_t>(graph.num_nodes())), served))
        << "seed " << seed;

    // Batched with a dense query, the encoder input is past the sparse
    // cutoff and runs dense; the sparse query's bits must not move.
    ServeRequest dense_request;
    dense_request.has_features = true;
    dense_request.features = RandomFeatures(graph.feature_dim(), seed + 1);
    const Matrix mixed = session.QueryBatch({&dense_request, &request});
    EXPECT_TRUE(BitwiseEqual(mixed.RowPtr(1), served)) << "seed " << seed;
  }
}

TEST(ServeInductive, MatchesOfflineWithCacheDisabled) {
  // The bitwise contract may not depend on whether the transition came out
  // of the PropagationCache or was rebuilt from scratch, on either side.
  const Graph graph = TestGraph(13);
  const std::vector<double> features =
      RandomFeatures(graph.feature_dim(), 55);
  const std::vector<int> edges = {1, 2, 30};

  std::vector<std::vector<double>> answers;
  std::vector<std::vector<double>> offline_rows;
  for (const bool enabled : {true, false}) {
    PropagationCache::Global().set_enabled(enabled);
    const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 7);
    const InferenceSession session(artifact, graph);
    ServeRequest request;
    request.has_features = true;
    request.features = features;
    request.has_edges = true;
    request.edges = edges;
    answers.push_back(session.QueryLogits(request));
    const Matrix offline = artifact.Infer(AugmentGraph(graph, features, edges));
    offline_rows.push_back(
        offline.RowCopy(static_cast<std::size_t>(graph.num_nodes())));
  }
  PropagationCache::Global().set_enabled(true);
  EXPECT_TRUE(BitwiseEqual(answers[0].data(), offline_rows[0]));
  EXPECT_TRUE(BitwiseEqual(answers[1].data(), offline_rows[1]));
  EXPECT_EQ(answers[0], answers[1]);
}

TEST(ServeInductive, IsolatedQueryNodeServesEncoderOnlyPath) {
  // No edges: the virtual node's transition row is just its diagonal (1.0).
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 17);
  const InferenceSession session(artifact, graph);
  const std::vector<double> features =
      RandomFeatures(graph.feature_dim(), 23);

  ServeRequest request;
  request.has_features = true;
  request.features = features;
  const std::vector<double> served = session.QueryLogits(request);

  const Matrix offline = artifact.Infer(AugmentGraph(graph, features, {}));
  EXPECT_TRUE(BitwiseEqual(
      offline.RowPtr(static_cast<std::size_t>(graph.num_nodes())), served));
}

TEST(ServeInductive, EdgeSanitizationMatchesCleanList) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 19);
  const InferenceSession session(artifact, graph);
  const std::vector<double> features =
      RandomFeatures(graph.feature_dim(), 31);

  ServeRequest clean;
  clean.has_features = true;
  clean.features = features;
  clean.has_edges = true;
  clean.edges = {4, 9, 60};
  ServeRequest junk = clean;
  junk.edges = {9, 60, -1, 4, graph.num_nodes(), 9, 1 << 20, 4};
  EXPECT_EQ(session.QueryLogits(clean), session.QueryLogits(junk));
}

TEST(ServeInductive, BatchCompositionDoesNotChangeInductiveBits) {
  // An inductive query coalesced with in-graph queries (the micro-batcher
  // will mix them freely) must produce the same bits as alone.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 37);
  const InferenceSession session(artifact, graph);

  ServeRequest inductive;
  inductive.has_features = true;
  inductive.features = RandomFeatures(graph.feature_dim(), 41);
  inductive.has_edges = true;
  inductive.edges = {2, 8};
  ServeRequest node_a;
  node_a.node = 3;
  ServeRequest inductive2;
  inductive2.has_features = true;
  inductive2.features = RandomFeatures(graph.feature_dim(), 43);

  const Matrix alone = session.QueryBatch({&inductive});
  const Matrix mixed =
      session.QueryBatch({&node_a, &inductive2, &inductive});
  EXPECT_EQ(std::memcmp(alone.RowPtr(0), mixed.RowPtr(2),
                        alone.cols() * sizeof(double)),
            0);
}

// --- Through the server (micro-batched, concurrent) ------------------------

TEST(ServeInductive, ServerAnswersFeatureQueriesBitwise) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 47);
  const std::vector<double> features =
      RandomFeatures(graph.feature_dim(), 53);
  const std::vector<int> edges = {0, 10, 20};
  const Matrix offline = artifact.Infer(AugmentGraph(graph, features, edges));

  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(InferenceSession(artifact, graph), options);
  ServeRequest request;
  request.id = 99;
  request.has_features = true;
  request.features = features;
  request.has_edges = true;
  request.edges = edges;
  const ServeResponse response = server.Query(request);
  EXPECT_EQ(response.id, 99);
  EXPECT_EQ(response.node, -1);  // not an in-graph node
  EXPECT_TRUE(BitwiseEqual(
      offline.RowPtr(static_cast<std::size_t>(graph.num_nodes())),
      response.logits));
}

// --- Registry models -------------------------------------------------------

TEST(ServeInductive, RegistryModelsWithArtifactsServeInductively) {
  // Every registry model that publishes a release artifact
  // (GraphModel::ReleaseArtifact) must serve feature-carrying queries
  // bitwise-equal to offline inference on the augmented graph; every model
  // that doesn't must reject them. Today "gcon" is the only publisher —
  // this loop keeps that an inventory, not an assumption.
  const Graph graph = TestGraph(21);
  Rng rng(21);
  const Split split = MakeSplit(TinySpec(), graph, &rng);
  int artifact_models = 0;
  for (const std::string& name : BuiltinModelRegistry().Names()) {
    ModelConfig config;
    config.Set("seed", "4");
    if (name == "gcon") config.Set("epsilon", "2");
    auto model = BuiltinModelRegistry().Create(name, config);
    try {
      model->Train(graph, split);
    } catch (const std::exception&) {
      continue;  // a method this tiny graph cannot train is not under test
    }
    const InferenceSession session(*model, graph);
    ServeRequest request;
    request.has_features = true;
    request.features = RandomFeatures(graph.feature_dim(), 61);
    request.has_edges = true;
    request.edges = {0, 7};
    if (model->ReleaseArtifact() != nullptr) {
      ++artifact_models;
      ASSERT_TRUE(session.per_query()) << name;
      const std::vector<double> served = session.QueryLogits(request);
      const Matrix offline = model->ReleaseArtifact()->Infer(
          AugmentGraph(graph, request.features, request.edges));
      EXPECT_TRUE(BitwiseEqual(
          offline.RowPtr(static_cast<std::size_t>(graph.num_nodes())),
          served))
          << name;
    } else {
      EXPECT_FALSE(session.per_query()) << name;
      EXPECT_THROW(session.QueryLogits(request), std::invalid_argument)
          << name;
    }
  }
  EXPECT_GE(artifact_models, 1);  // gcon at minimum
}

// --- Validation ------------------------------------------------------------

TEST(ServeInductive, ValidatesFeatureQueries) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 67);
  const InferenceSession session(artifact, graph);

  ServeRequest short_features;
  short_features.has_features = true;
  short_features.features = {0.5, 0.25};
  try {
    session.QueryLogits(short_features);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2 values"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(graph.feature_dim())),
              std::string::npos)
        << e.what();
  }

  ServeRequest both;
  both.node = 1;
  both.has_features = true;
  both.features = RandomFeatures(graph.feature_dim(), 71);
  EXPECT_THROW(session.QueryLogits(both), std::invalid_argument);
}

}  // namespace
}  // namespace gcon
