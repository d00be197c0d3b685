// Serving subsystem: bitwise identity of served vs offline inference
// (single, batched, under concurrent clients), multi-model routing over
// the shared batcher, the micro-batcher's lifecycle (single- and
// multi-queue), the wire format, option validation, the latency histogram,
// and malformed-artifact error reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "core/gcon.h"
#include "core/model_io.h"
#include "graph/datasets.h"
#include "model/adapters.h"
#include "nn/mlp.h"
#include "rng/rng.h"
#include "serve_test_util.h"
#include "serve/batcher.h"
#include "serve/fault_injection.h"
#include "serve/inference_session.h"
#include "obs/latency_stats.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace gcon {
namespace {

using serve_test::BitwiseEqualRow;
using serve_test::SyntheticArtifact;
using serve_test::TestGraph;

// --- InferenceSession: the bitwise contract --------------------------------

TEST(InferenceSession, SingleQueryMatchesOfflineInferBitwise) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const Matrix offline = artifact.Infer(graph);
  const InferenceSession session(artifact, graph);
  for (int v = 0; v < graph.num_nodes(); ++v) {
    ServeRequest request;
    request.node = v;
    EXPECT_TRUE(BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                                session.QueryLogits(request)))
        << "node " << v;
  }
}

TEST(InferenceSession, BatchedQueriesMatchOfflineInferBitwise) {
  const Graph graph = TestGraph();
  // Pure one-hop steps (no 0 block) and a multi-block mix both matter.
  for (const std::vector<int>& steps :
       {std::vector<int>{2}, std::vector<int>{0, 2, 4}}) {
    const GconArtifact artifact = SyntheticArtifact(graph, steps, 8, 5);
    const Matrix offline = artifact.Infer(graph);
    const InferenceSession session(artifact, graph);
    std::vector<ServeRequest> requests(
        static_cast<std::size_t>(graph.num_nodes()));
    std::vector<const ServeRequest*> batch;
    for (int v = 0; v < graph.num_nodes(); ++v) {
      requests[static_cast<std::size_t>(v)].node = v;
      batch.push_back(&requests[static_cast<std::size_t>(v)]);
    }
    const Matrix served = session.QueryBatch(batch);
    ASSERT_EQ(served.rows(), offline.rows());
    ASSERT_EQ(served.cols(), offline.cols());
    EXPECT_EQ(std::memcmp(served.data(), offline.data(),
                          served.size() * sizeof(double)),
              0)
        << "steps size " << steps.size();
  }
}

TEST(InferenceSession, BatchCompositionDoesNotChangeBits) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 7);
  const InferenceSession session(artifact, graph);
  ServeRequest a, b, c;
  a.node = 1;
  b.node = 4;
  c.node = 1;
  const Matrix alone = session.QueryBatch({&a});
  const Matrix together = session.QueryBatch({&b, &c, &a});
  EXPECT_EQ(std::memcmp(alone.RowPtr(0), together.RowPtr(1),
                        alone.cols() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(alone.RowPtr(0), together.RowPtr(2),
                        alone.cols() * sizeof(double)),
            0);
}

TEST(InferenceSession, ExplicitEdgeListMatchesGraphAdjacency) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 11);
  const InferenceSession session(artifact, graph);
  int v = 0;
  for (int u = 0; u < graph.num_nodes(); ++u) {
    if (graph.Degree(u) > 1) v = u;
  }
  ServeRequest plain;
  plain.node = v;
  ServeRequest with_edges;
  with_edges.node = v;
  with_edges.has_edges = true;
  with_edges.edges = graph.Neighbors(v);
  // Same edges (plus junk that sanitization must drop) -> same bits.
  with_edges.edges.push_back(v);    // self
  with_edges.edges.push_back(-3);   // out of range
  with_edges.edges.push_back(graph.Neighbors(v).front());  // duplicate
  EXPECT_EQ(session.QueryLogits(plain), session.QueryLogits(with_edges));

  // A different edge list must change the answer (it changes Ã_v).
  ServeRequest pruned;
  pruned.node = v;
  pruned.has_edges = true;
  EXPECT_NE(session.QueryLogits(plain), session.QueryLogits(pruned));
}

TEST(InferenceSession, AlphaInferenceOverrideMatchesOfflineInferBitwise) {
  const Graph graph = TestGraph();
  GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 45);
  artifact.alpha_inference = 0.3;  // alpha is 0.7
  const Matrix offline = artifact.Infer(graph);
  GconArtifact at_alpha = artifact;
  at_alpha.alpha_inference = -1.0;
  ASSERT_NE(std::memcmp(at_alpha.Infer(graph).data(), offline.data(),
                        offline.size() * sizeof(double)),
            0);

  const InferenceSession session(artifact, graph);
  std::vector<ServeRequest> requests(
      static_cast<std::size_t>(graph.num_nodes()));
  std::vector<const ServeRequest*> batch;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    requests[static_cast<std::size_t>(v)].node = v;
    batch.push_back(&requests[static_cast<std::size_t>(v)]);
  }
  const Matrix served = session.QueryBatch(batch);
  ASSERT_EQ(served.size(), offline.size());
  EXPECT_EQ(std::memcmp(served.data(), offline.data(),
                        served.size() * sizeof(double)),
            0);

  ServeRequest inductive;
  inductive.has_features = true;
  Rng rng(47);
  for (int j = 0; j < graph.feature_dim(); ++j) {
    inductive.features.push_back(rng.Uniform(0.0, 1.0));
  }
  inductive.has_edges = true;
  inductive.edges = {9, 1, 4};
  const Matrix augmented = artifact.Infer(
      serve_test::AugmentGraph(graph, inductive.features, inductive.edges));
  EXPECT_TRUE(BitwiseEqualRow(augmented,
                              static_cast<std::size_t>(graph.num_nodes()),
                              session.QueryLogits(inductive)));
}

TEST(InferenceSession, PrivateEdgeListMatchesInferOnRewiredGraph) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 49);
  const InferenceSession session(artifact, graph);
  int v = 0;
  for (int u = 0; u < graph.num_nodes(); ++u) {
    if (graph.Degree(u) > 1) v = u;
  }
  // v's private list keeps one graph neighbour and adds three strangers,
  // unsorted and with a repeat; the rewired copy gives v exactly these
  // edges.
  std::vector<int> edges = {graph.Neighbors(v).front()};
  for (int u = graph.num_nodes() - 1; edges.size() < 4; --u) {
    if (u != v && !graph.HasEdge(v, u)) edges.push_back(u);
  }
  edges.push_back(edges[1]);
  Graph rewired = graph;
  for (const int u : graph.Neighbors(v)) rewired.RemoveEdge(v, u);
  for (const int u : edges) rewired.AddEdge(v, u);

  ServeRequest request;
  request.node = v;
  request.has_edges = true;
  request.edges = edges;
  EXPECT_TRUE(BitwiseEqualRow(artifact.Infer(rewired),
                              static_cast<std::size_t>(v),
                              session.QueryLogits(request)));
}

TEST(InferenceSession, ValidatesRequests) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 13);
  const InferenceSession session(artifact, graph);
  ServeRequest bad;
  bad.node = graph.num_nodes();
  EXPECT_THROW(session.QueryLogits(bad), std::invalid_argument);
  bad.node = -1;
  EXPECT_THROW(session.QueryLogits(bad), std::invalid_argument);
}

TEST(InferenceSession, GenericModeServesAnyRegistryModel) {
  const Graph graph = TestGraph();
  Rng rng(21);
  const Split split = MakeSplit(TinySpec(), graph, &rng);
  auto model = BuiltinModelRegistry().Create(
      "mlp", ModelConfig{{"epochs", "30"}, {"seed", "4"}});
  model->Train(graph, split);
  const Matrix offline = model->Predict(graph);
  const InferenceSession session(*model, graph);
  EXPECT_FALSE(session.per_query());
  ServeRequest request;
  request.node = 2;
  EXPECT_TRUE(BitwiseEqualRow(offline, 2, session.QueryLogits(request)));
  request.has_edges = true;
  EXPECT_THROW(session.QueryLogits(request), std::invalid_argument);
}

// --- InferenceServer: micro-batching under concurrency ---------------------

// The release path (train, release, offline inference, session init and
// publish) reads the graph's CSR feature store only: the dense n x d0
// feature matrix is never built. Covers a bag-of-words spec (sparse layer 0)
// and TinySpec (density 0.2, GEMM layer 0).
TEST(ReleasePath, NeverBuildsTheDenseFeatureMatrix) {
  for (const DatasetSpec& spec : {Scaled(CoraMlSpec(), 0.1), TinySpec()}) {
    SCOPED_TRACE(spec.name);
    Rng rng(31);
    const auto graph =
        std::make_shared<const Graph>(GenerateDataset(spec, &rng));
    const Split split = MakeSplit(spec, *graph, &rng);
    GconConfig config;
    config.encoder.epochs = 10;
    config.steps = {0, 2};
    const GconModel model = TrainGcon(*graph, split, config);
    const GconPrepared prepared = PrepareGcon(*graph, split, config);
    const GconArtifact artifact = MakeArtifact(prepared, model, 1.0, 1e-5);
    const Matrix offline = artifact.Infer(*graph);
    PublicInferenceOnGraph(prepared, model, *graph);

    std::vector<ModelRouter::NamedModel> models;
    models.push_back({"m", InferenceSession(artifact, graph)});
    ServeOptions options;
    InferenceServer server(std::move(models), options);
    GconArtifact next = artifact;
    next.theta(0, 0) += 1.0;
    server.Publish("m", InferenceSession(next, graph));
    ServeRequest request;
    request.node = 1;
    EXPECT_TRUE(BitwiseEqualRow(offline, 1,
                                InferenceSession(artifact, graph)
                                    .QueryLogits(request)));
    server.Drain();
    EXPECT_FALSE(graph->dense_features_built());
  }
}

TEST(InferenceServer, ConcurrentClientsGetBitwiseOfflineAnswers) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 17);
  const Matrix offline = artifact.Infer(graph);

  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(InferenceSession(artifact, graph), options);

  const int kClients = 4;
  const int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const int v = (c * 31 + r * 7) % graph.num_nodes();
        ServeRequest request;
        request.id = c * 1000 + r;
        request.node = v;
        const ServeResponse response = server.Query(request);
        if (response.id != request.id || response.node != v ||
            !BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                             response.logits)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.queries_served(),
            static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_GE(server.batches_run(), 1u);
  EXPECT_LE(server.batches_run(), server.queries_served());
  const LatencyStats::Snapshot lat = server.latency();
  EXPECT_EQ(lat.count, static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_GE(lat.p99_us, lat.p50_us);
}

TEST(InferenceServer, AsyncPipelineCoalescesAndPreservesIdentity) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 19);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  options.max_batch = 16;
  InferenceServer server(InferenceSession(artifact, graph), options);

  std::vector<ServeFuture> futures;
  for (int v = 0; v < graph.num_nodes(); ++v) {
    ServeRequest request;
    request.id = v;
    request.node = v;
    futures.push_back(server.QueryAsync(request));
  }
  for (int v = 0; v < graph.num_nodes(); ++v) {
    const ServeResponse response =
        futures[static_cast<std::size_t>(v)].get();
    EXPECT_TRUE(BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                                response.logits))
        << "node " << v;
  }
  // A pipelined burst, awaited in order, must actually batch.
  EXPECT_LT(server.batches_run(), server.queries_served());
}

TEST(InferenceServer, UncontendedQueryRunsItsBatchOnTheCallingThread) {
  // Flat combining: with no other traffic, the thread that asks runs its
  // own batch — no handoff to another thread and back.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 27);
  const Matrix offline = artifact.Infer(graph);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});
  FaultInjector::Global().Reset();
  // The swap-during-batch site fires inside the server's batch handler.
  std::thread::id handler_thread;
  FaultInjector::Global().SetCallback(Fault::kSwapDuringBatch, [&] {
    handler_thread = std::this_thread::get_id();
  });
  FaultInjector::Global().Arm(Fault::kSwapDuringBatch, 1);
  ServeRequest request;
  request.id = 1;
  request.node = 4;
  const ServeResponse response = server.Query(request);
  FaultInjector::Global().Reset();
  EXPECT_EQ(handler_thread, std::this_thread::get_id());
  EXPECT_TRUE(BitwiseEqualRow(offline, 4, response.logits));
}

TEST(InferenceServer, DrainAndDestructionResolveQueriesNobodyAwaits) {
  // Accepted queries whose handles are never awaited still resolve: by
  // Drain, or by the server's destruction — and the answered handles
  // outlive the server.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 37);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  options.max_batch = 4;
  // The registry is process-global, so this series outlives the server and
  // counts what its destructor ran.
  const obs::Histogram* batch_sizes = obs::MetricsRegistry::Global().histogram(
      "gcon_serve_batch_size", "", {{"model", "default"}});
  for (const bool drain : {true, false}) {
    SCOPED_TRACE(drain ? "Drain" : "destructor");
    const std::uint64_t served_before = batch_sizes->stats().SumUs();
    std::vector<ServeFuture> futures;
    {
      InferenceServer server(InferenceSession(artifact, graph), options);
      for (int v = 0; v < graph.num_nodes(); ++v) {
        ServeRequest request;
        request.id = v;
        request.node = v;
        futures.push_back(server.QueryAsync(request));
      }
      if (drain) {
        server.Drain();
        EXPECT_EQ(server.queries_served(), futures.size());
      }
    }
    // Every accepted query has run, so get() below only reads its answer.
    ASSERT_EQ(batch_sizes->stats().SumUs() - served_before, futures.size());
    for (int v = 0; v < graph.num_nodes(); ++v) {
      ServeFuture& future = futures[static_cast<std::size_t>(v)];
      EXPECT_TRUE(BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                                  future.get().logits))
          << "node " << v;
    }
  }
}

TEST(InferenceServer, ConcurrentCombinersStayBitwiseOffline) {
  // Eight pipelining clients each keep a window of queries in flight and
  // await the oldest, so every client also runs batches holding the other
  // clients' queries. Every answer must still be its node's offline row.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 41);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(InferenceSession(artifact, graph), options);

  constexpr int kClients = 8;
  constexpr int kQueries = 1000;
  constexpr std::size_t kWindow = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::deque<std::pair<int, ServeFuture>> inflight;
      const auto await_oldest = [&] {
        const int v = inflight.front().first;
        const ServeResponse response = inflight.front().second.get();
        inflight.pop_front();
        if (response.node != v ||
            !BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                             response.logits)) {
          mismatches.fetch_add(1);
        }
      };
      for (int q = 0; q < kQueries; ++q) {
        ServeRequest request;
        request.id = c * kQueries + q;
        request.node = (c * 131 + q * 7) % graph.num_nodes();
        inflight.emplace_back(request.node, server.QueryAsync(request));
        if (inflight.size() >= kWindow) await_oldest();
      }
      while (!inflight.empty()) await_oldest();
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.queries_served(),
            static_cast<std::uint64_t>(kClients * kQueries));
}

TEST(InferenceServer, RejectsBadRequestsAtSubmitTime) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 23);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});
  ServeRequest bad;
  bad.node = -5;
  EXPECT_THROW(server.Query(bad), std::invalid_argument);
  EXPECT_EQ(server.queries_served(), 0u);
}

TEST(ServeOptions, ValidateNamesTheOffendingKnob) {
  auto message_of = [](ServeOptions options) {
    try {
      options.Validate();
      return std::string();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
  };
  ServeOptions negative_batch;
  negative_batch.max_batch = -4;
  EXPECT_NE(message_of(negative_batch).find("max_batch"), std::string::npos);
  EXPECT_TRUE(message_of(ServeOptions{}).empty());
}

TEST(MicroBatcher, StopDrainsAndRejectsLateSubmissions) {
  ServeOptions options;
  options.max_batch = 4;
  MicroBatcher batcher(options, [](std::vector<PendingQuery*>& batch) {
    for (PendingQuery* p : batch) {
      p->response.label = p->request.node;
    }
  });
  std::vector<ServeFuture> futures;
  for (int i = 0; i < 20; ++i) {
    ServeRequest request;
    request.node = i;
    futures.push_back(batcher.Submit(request));
  }
  batcher.Stop();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().label, i);
  }
  ServeRequest late;
  late.node = 0;
  EXPECT_THROW(batcher.Submit(late), std::runtime_error);
}

// --- Multi-model routing ---------------------------------------------------

TEST(ModelRouter, ResolvesNamesAndRejectsBadSets) {
  const Graph graph = TestGraph();
  auto make = [&](std::vector<std::pair<std::string, std::uint64_t>> specs) {
    std::vector<ModelRouter::NamedModel> models;
    for (const auto& [name, seed] : specs) {
      models.push_back(
          {name, InferenceSession(SyntheticArtifact(graph, {2}, 8, seed),
                                  graph)});
    }
    return models;
  };
  const ModelRouter router(make({{"a", 1}, {"b", 2}}));
  EXPECT_EQ(router.size(), 2);
  EXPECT_EQ(router.Resolve(""), 0);  // default = first-listed
  EXPECT_EQ(router.Resolve("a"), 0);
  EXPECT_EQ(router.Resolve("b"), 1);
  EXPECT_EQ(router.Find("zzz"), -1);
  EXPECT_EQ(router.default_model(), "a");
  EXPECT_EQ(router.NameList(), "a, b");
  try {
    router.Resolve("zzz");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("zzz"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("a, b"), std::string::npos);
  }

  EXPECT_THROW(ModelRouter({}), std::invalid_argument);
  EXPECT_THROW(ModelRouter(make({{"a", 1}, {"a", 2}})),
               std::invalid_argument);
  EXPECT_THROW(ModelRouter(make({{"", 1}})), std::invalid_argument);
  EXPECT_THROW(ModelRouter(make({{"bad name", 1}})), std::invalid_argument);
  EXPECT_THROW(ModelRouter(make({{"bad\"quote", 1}})),
               std::invalid_argument);
}

TEST(InferenceServer, RoutesQueriesToNamedModelsBitwise) {
  // Two different artifacts served from one process; every response must be
  // bitwise identical to ITS model's offline inference — a routing slip
  // would surface as the other model's (different) bits.
  const Graph graph = TestGraph();
  const GconArtifact artifact_a = SyntheticArtifact(graph, {0, 2}, 8, 51);
  const GconArtifact artifact_b = SyntheticArtifact(graph, {2}, 8, 151);
  const Matrix offline_a = artifact_a.Infer(graph);
  const Matrix offline_b = artifact_b.Infer(graph);

  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"a", InferenceSession(artifact_a, graph)});
  models.push_back({"b", InferenceSession(artifact_b, graph)});
  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(std::move(models), options);

  const int kClients = 4;
  const int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        const int v = (c * 29 + r * 5) % graph.num_nodes();
        ServeRequest request;
        request.id = c * 1000 + r;
        request.node = v;
        const bool use_b = (c + r) % 2 == 1;
        request.model = use_b ? "b" : "a";
        const ServeResponse response = server.Query(request);
        const Matrix& offline = use_b ? offline_b : offline_a;
        if (!BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                             response.logits)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.queries_served(),
            static_cast<std::uint64_t>(kClients * kRounds));
  // Aggregate latency merges both models' histograms.
  EXPECT_EQ(server.latency().count,
            static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_EQ(server.latency(0).count + server.latency(1).count,
            server.latency().count);

  // Unknown model: rejected at submit with the serving list, not queued.
  ServeRequest unknown;
  unknown.node = 0;
  unknown.model = "zzz";
  EXPECT_THROW(server.Query(unknown), std::invalid_argument);

  // Per-model breakdown appears in the stats line.
  const std::string stats = server.StatsJson();
  EXPECT_NE(stats.find("\"models\": [{\"name\": \"a\", "), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("{\"name\": \"b\", "), std::string::npos) << stats;
}

TEST(InferenceServer, EmptyModelFieldRoutesToDefault) {
  const Graph graph = TestGraph();
  const GconArtifact artifact_a = SyntheticArtifact(graph, {2}, 8, 61);
  const GconArtifact artifact_b = SyntheticArtifact(graph, {2}, 8, 161);
  const Matrix offline_a = artifact_a.Infer(graph);
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"first", InferenceSession(artifact_a, graph)});
  models.push_back({"second", InferenceSession(artifact_b, graph)});
  InferenceServer server(std::move(models), ServeOptions{});
  ServeRequest request;
  request.node = 5;  // no model named: the first-listed one answers
  EXPECT_TRUE(BitwiseEqualRow(offline_a, 5, server.Query(request).logits));
}

TEST(MicroBatcher, MultiQueueSharesWorkersAndKeepsPerQueueCounters) {
  ServeOptions options;
  options.max_batch = 4;
  // Queue handlers stamp which queue ran the batch; a cross-queue batch
  // would mislabel every query in it.
  std::vector<MicroBatcher::BatchHandler> handlers;
  for (int q = 0; q < 3; ++q) {
    handlers.push_back([q](std::vector<PendingQuery*>& batch) {
      for (PendingQuery* p : batch) p->response.label = q;
    });
  }
  MicroBatcher batcher(options, std::move(handlers));
  ASSERT_EQ(batcher.num_queues(), 3u);
  std::vector<std::pair<std::size_t, ServeFuture>> futures;
  for (int i = 0; i < 60; ++i) {
    const std::size_t queue = static_cast<std::size_t>(i % 3);
    ServeRequest request;
    request.node = i;
    futures.emplace_back(queue, batcher.Submit(queue, request));
  }
  for (auto& [queue, future] : futures) {
    EXPECT_EQ(future.get().label, static_cast<int>(queue));
  }
  EXPECT_EQ(batcher.queries_served(), 60u);
  EXPECT_EQ(batcher.queries_served(0), 20u);
  EXPECT_EQ(batcher.queries_served(1), 20u);
  EXPECT_EQ(batcher.queries_served(2), 20u);
  EXPECT_EQ(batcher.batches_run(),
            batcher.batches_run(0) + batcher.batches_run(1) +
                batcher.batches_run(2));
  EXPECT_EQ(batcher.latency(0).Summarize().count, 20u);
  batcher.Stop();
}

// --- Wire format -----------------------------------------------------------

TEST(Wire, ParsesQueryWithEdges) {
  WireCommand command;
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseWireRequest(
      "{\"id\": 42, \"node\": 7, \"edges\": [1, 5, 9]}", &command, &request,
      &error))
      << error;
  EXPECT_EQ(command, WireCommand::kQuery);
  EXPECT_EQ(request.id, 42);
  EXPECT_EQ(request.node, 7);
  EXPECT_TRUE(request.has_edges);
  EXPECT_EQ(request.edges, (std::vector<int>{1, 5, 9}));
}

TEST(Wire, ParsesMinimalAndCommandForms) {
  WireCommand command;
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseWireRequest("{\"node\":3}", &command, &request, &error));
  EXPECT_EQ(request.node, 3);
  EXPECT_FALSE(request.has_edges);
  ASSERT_TRUE(ParseWireRequest("{\"edges\": [], \"node\": 0}", &command,
                               &request, &error));
  EXPECT_TRUE(request.has_edges);
  EXPECT_TRUE(request.edges.empty());
  ASSERT_TRUE(
      ParseWireRequest("{\"cmd\": \"stats\"}", &command, &request, &error));
  EXPECT_EQ(command, WireCommand::kStats);
  ASSERT_TRUE(
      ParseWireRequest("{\"cmd\": \"quit\"}", &command, &request, &error));
  EXPECT_EQ(command, WireCommand::kQuit);
}

TEST(Wire, RejectsMalformedLinesWithReasonAndRecoveredId) {
  WireCommand command;
  ServeRequest request;
  std::string error;
  EXPECT_FALSE(ParseWireRequest("predict 5", &command, &request, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseWireRequest("{\"id\": 9, \"nodes\": 1}", &command,
                                &request, &error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_EQ(request.id, 9);  // recovered for the error response
  EXPECT_FALSE(ParseWireRequest("{}", &command, &request, &error));
  EXPECT_NE(error.find("node"), std::string::npos);
  EXPECT_FALSE(ParseWireRequest("{\"node\": 1} trailing", &command, &request,
                                &error));
}

TEST(Wire, ResponseRoundTripsDoublesExactly) {
  ServeResponse response;
  response.id = 3;
  response.node = 1;
  response.label = 0;
  response.logits = {1.0 / 3.0, -123456.789012345678, 1e-17};
  const std::string line = FormatWireResponse(response);
  // A client parsing the 17-digit decimals must recover the exact bits.
  std::istringstream nums(line.substr(line.find('[') + 1));
  double a = 0, b = 0, c = 0;
  char comma;
  nums >> a >> comma >> b >> comma >> c;
  EXPECT_EQ(a, response.logits[0]);
  EXPECT_EQ(b, response.logits[1]);
  EXPECT_EQ(c, response.logits[2]);
}

// --- Latency histogram -----------------------------------------------------

TEST(LatencyStats, BucketsBoundRelativeError) {
  for (std::uint64_t us :
       {0ull, 1ull, 7ull, 8ull, 100ull, 4096ull, 1000000ull}) {
    const int bucket = LatencyStats::BucketIndex(us);
    EXPECT_GE(LatencyStats::BucketUpperBound(bucket), us) << us;
    if (us >= 8) {
      EXPECT_LE(static_cast<double>(LatencyStats::BucketUpperBound(bucket)),
                static_cast<double>(us) * 1.125 + 1.0)
          << us;
    }
  }
}

TEST(LatencyStats, PercentilesOrderAndCount) {
  LatencyStats stats;
  for (int i = 1; i <= 1000; ++i) stats.Record(static_cast<double>(i));
  const LatencyStats::Snapshot snap = stats.Summarize();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_LE(snap.p50_us, snap.p95_us);
  EXPECT_LE(snap.p95_us, snap.p99_us);
  EXPECT_LE(snap.p99_us, snap.max_us);
  EXPECT_NEAR(snap.p50_us, 500.0, 500.0 * 0.15);
  EXPECT_NEAR(snap.p99_us, 990.0, 990.0 * 0.15);
  EXPECT_NEAR(snap.mean_us, 500.5, 1.0);
  EXPECT_EQ(snap.max_us, 1000.0);
}

// --- WorkerPool (the persistent pool ParallelFor now rides on) -------------

TEST(WorkerPool, ReusesResidentThreadsAcrossJobs) {
  WorkerPool pool;
  std::atomic<int> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run(16, 4, [&](int i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50 * (15 * 16 / 2));
  // 4-way jobs need 3 extra workers; the pool must not have spawned one
  // thread per job.
  EXPECT_EQ(pool.resident_workers(), 3);
}

TEST(WorkerPool, NestedRunExecutesInline) {
  WorkerPool pool;
  std::atomic<int> inner_total{0};
  pool.Run(4, 4, [&](int) {
    // A nested Run on a pool thread must not deadlock on the job lock.
    pool.Run(8, 4, [&](int j) { inner_total.fetch_add(j); });
  });
  EXPECT_EQ(inner_total.load(), 4 * (7 * 8 / 2));
}

// --- Malformed artifacts (LoadModel error reporting) -----------------------

TEST(InferenceSession, InconsistentArtifactThrowsNotAborts) {
  const Graph graph = TestGraph();
  GconArtifact no_steps = SyntheticArtifact(graph, {0, 2}, 8, 31);
  no_steps.steps.clear();
  EXPECT_THROW(InferenceSession(std::move(no_steps), graph),
               std::runtime_error);
  GconArtifact bad_theta = SyntheticArtifact(graph, {0, 2}, 8, 31);
  bad_theta.theta = Matrix(3, 3);
  EXPECT_THROW(InferenceSession(std::move(bad_theta), graph),
               std::runtime_error);
}

TEST(InferenceSession, FromFileNamesPathOnInconsistentArtifact) {
  // Parseable but unservable ("steps 0"): the error must carry the file
  // path, not abort past the CLI's reporting.
  const Graph graph = TestGraph();
  GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 33);
  artifact.steps.clear();
  const std::string path = "/tmp/gcon_serve_no_steps.model";
  SaveModel(artifact, path);
  try {
    InferenceSession::FromFile(path, graph);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIoErrors, MissingFileThrowsWithPath) {
  try {
    LoadModel("/tmp/gcon_no_such_artifact.model");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/tmp/gcon_no_such_artifact.model"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

TEST(ModelIoErrors, WrongMagicNamesTheProblem) {
  const std::string path = "/tmp/gcon_serve_bad_magic.model";
  {
    std::ofstream out(path);
    out << "not-a-model v9\njunk\n";
  }
  try {
    LoadModel(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ModelIoErrors, TruncatedArtifactThrowsNotAborts) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 29);
  const std::string path = "/tmp/gcon_serve_truncated.model";
  SaveModel(artifact, path);
  std::ifstream in(path);
  std::stringstream whole;
  whole << in.rdbuf();
  const std::string full = whole.str();
  in.close();
  // Cut inside the theta block and inside the embedded MLP block: both
  // sides of the LoadMlp boundary must throw, with the path attached.
  for (double fraction : {0.35, 0.9}) {
    std::ofstream out(path);
    out << full.substr(0, static_cast<std::size_t>(
                              static_cast<double>(full.size()) * fraction));
    out.close();
    try {
      LoadModel(path);
      FAIL() << "expected std::runtime_error at fraction " << fraction;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcon
