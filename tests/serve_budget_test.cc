// Server-level budget accounting: the regression suite for the
// resettable-gauge bug (a reconstructed/restarted server must show the
// LEDGER's cumulative epsilon, never the incoming artifact's own receipt),
// the no-spend-on-failed-publish contract (unreadable artifact, hostile
// header, population mismatch leave gauge AND ledger untouched), over-cap
// refusal with the old bits still serving bitwise, and the concurrent
// Publish-vs-Publish / Publish-vs-scrape races the TSan preset watches.
// All in-process (no TCP): the wire-visible shape of the same behavior is
// locked by the two conformance suites.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "dp/budget_ledger.h"
#include "graph/datasets.h"
#include "obs/metrics.h"
#include "propagation/cache.h"
#include "serve_test_util.h"
#include "serve/inference_session.h"
#include "serve/serve_error.h"
#include "serve/server.h"

namespace gcon {
namespace {

using serve_test::SyntheticArtifact;

double GaugeValue(const std::string& model) {
  return obs::MetricsRegistry::Global()
      .gauge("gcon_dp_epsilon", "", {{"model", model}})
      ->value();
}

std::string LedgerPath(const char* name) {
  const std::string path =
      ::testing::TempDir() + "gcon_serve_budget_test_" + name + ".ledger";
  std::remove(path.c_str());
  return path;
}

InferenceServer MakeServer(const std::string& model,
                           const GconArtifact& artifact, const Graph& graph,
                           const std::string& ledger_path,
                           double cap = 0.0) {
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({model, InferenceSession(artifact, graph)});
  ServeOptions options;
  options.max_batch = 4;
  options.budget_ledger = ledger_path;
  options.budget_cap = cap;
  return InferenceServer(std::move(models), options);
}

TEST(ServeBudgetTest, ReconstructAndRestartPreserveLedgeredTotal) {
  // The original bug: the constructor Set() the process-global epsilon
  // gauge from the incoming artifact, so building a second server (or
  // restarting the process) silently wiped the cumulative repeated-release
  // total. With a ledger the gauge is RESTORED, not reset.
  const std::string path = LedgerPath("restart");
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact first = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const GconArtifact second = SyntheticArtifact(graph, {2}, 8, 101);

  {
    InferenceServer server = MakeServer("rst", first, graph, path);
    EXPECT_DOUBLE_EQ(GaugeValue("rst"), 1.0);  // first release charged
    server.Publish("rst", InferenceSession(second, graph));
    EXPECT_DOUBLE_EQ(GaugeValue("rst"), 2.0);  // repeated release adds
  }

  // "Restart" serving the last-published bits: the ledger's charge for
  // those very bits stands — total 2.0, NOT the artifact's own 1.0.
  {
    InferenceServer server = MakeServer("rst", second, graph, path);
    EXPECT_DOUBLE_EQ(GaugeValue("rst"), 2.0);
    EXPECT_NE(server.BudgetJson().find("\"model\": \"rst\", \"epsilon\": 2,"),
              std::string::npos)
        << server.BudgetJson();
    EXPECT_TRUE(server.budget_ledger().persistent());
  }

  // "Restart" with bits the ledger never committed (an out-of-band
  // artifact) is a fresh release on the same population: charged on top.
  {
    InferenceServer server = MakeServer("rst", first, graph, path);
    EXPECT_DOUBLE_EQ(GaugeValue("rst"), 3.0);
  }
  std::remove(path.c_str());
}

TEST(ServeBudgetTest, FailedPublishLeavesGaugeAndLedgerUntouched) {
  const std::string path = LedgerPath("nospend");
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  InferenceServer server = MakeServer("ns", artifact, graph, path);
  const std::uint64_t fp = FingerprintGraph(graph);
  ASSERT_DOUBLE_EQ(server.budget_ledger().TotalEpsilon(fp, "ns"), 1.0);

  // Unreadable artifact: fails while loading, before any ledger touch.
  EXPECT_THROW(server.PublishFromFile("ns", "/nonexistent/no.model"),
               std::exception);
  EXPECT_DOUBLE_EQ(server.budget_ledger().TotalEpsilon(fp, "ns"), 1.0);
  EXPECT_DOUBLE_EQ(GaugeValue("ns"), 1.0);

  // Hostile header: a file that is not a model artifact.
  const std::string hostile = ::testing::TempDir() + "gcon_hostile.model";
  {
    std::ofstream out(hostile, std::ios::binary);
    out << "#!/bin/sh\nrm -rf importance\n";
  }
  EXPECT_THROW(server.PublishFromFile("ns", hostile), std::exception);
  EXPECT_DOUBLE_EQ(server.budget_ledger().TotalEpsilon(fp, "ns"), 1.0);
  EXPECT_DOUBLE_EQ(GaugeValue("ns"), 1.0);
  std::remove(hostile.c_str());

  // Population mismatch: a session over a different node count reserves,
  // fails the swap, and must be refunded (the reserve→abort path).
  const Graph bigger = serve_test::AugmentGraph(
      graph, std::vector<double>(
                 static_cast<std::size_t>(graph.feature_dim()), 0.0),
      {0});
  const GconArtifact mismatched = SyntheticArtifact(bigger, {2}, 8, 7);
  EXPECT_THROW(
      server.Publish("ns", InferenceSession(mismatched, bigger)),
      std::invalid_argument);
  const BudgetLedger::BudgetTotals totals =
      server.budget_ledger().Totals(fp, "ns");
  EXPECT_DOUBLE_EQ(totals.epsilon, 1.0);
  EXPECT_EQ(totals.publishes, 1u);
  EXPECT_DOUBLE_EQ(GaugeValue("ns"), 1.0);

  // The refunds were durable too: a reopened ledger replays to the same
  // totals (no phantom charge from the aborted reservations).
  std::remove(path.c_str());
}

TEST(ServeBudgetTest, OverCapPublishRefusedOldBitsKeepServing) {
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const Matrix offline = artifact.Infer(graph);
  InferenceServer server =
      MakeServer("cap", artifact, graph, /*ledger_path=*/"", /*cap=*/1.5);

  const GconArtifact next = SyntheticArtifact(graph, {2}, 8, 404);
  try {
    server.Publish("cap", InferenceSession(next, graph));
    FAIL() << "over-cap publish was not refused";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kBudgetExhausted);
  }
  EXPECT_DOUBLE_EQ(GaugeValue("cap"), 1.0);

  // The refusal left the OLD artifact serving, bitwise.
  ServeRequest request;
  request.id = 1;
  request.model = "cap";
  request.node = 12;
  const ServeResponse response = server.Query(request);
  EXPECT_TRUE(serve_test::BitwiseEqualRow(offline, 12, response.logits));
}

TEST(ServeBudgetTest, ConcurrentPublishesAndScrapesAccountExactly) {
  // Publish-vs-Publish and Publish-vs-scrape under the sanitizer matrix:
  // two threads republish concurrently while a third scrapes the metrics
  // and budget documents. Every commit must land in the total exactly once
  // — publish_mu_ serializes reserve→swap→commit, and the gauge ends at
  // construction + one charge per publish.
  const std::string path = LedgerPath("race");
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const GconArtifact other = SyntheticArtifact(graph, {2}, 8, 101);
  constexpr int kPublishesPerThread = 8;
  {
    InferenceServer server = MakeServer("race", artifact, graph, path);
    std::thread scraper([&server] {
      for (int i = 0; i < 40; ++i) {
        server.MetricsText();
        server.BudgetJson();
        server.StatsJson();
      }
    });
    std::thread publisher_a([&server, &other, &graph] {
      for (int i = 0; i < kPublishesPerThread; ++i) {
        server.Publish("race", InferenceSession(other, graph));
      }
    });
    std::thread publisher_b([&server, &artifact, &graph] {
      for (int i = 0; i < kPublishesPerThread; ++i) {
        server.Publish("race", InferenceSession(artifact, graph));
      }
    });
    scraper.join();
    publisher_a.join();
    publisher_b.join();
    const double expected = 1.0 + 2 * kPublishesPerThread;
    EXPECT_DOUBLE_EQ(GaugeValue("race"), expected);
    EXPECT_DOUBLE_EQ(server.budget_ledger().TotalEpsilon(
                         FingerprintGraph(graph), "race"),
                     expected);
  }
  // And the whole interleaving was durable: replay agrees.
  BudgetLedger replay(path);
  EXPECT_DOUBLE_EQ(replay.TotalEpsilon(FingerprintGraph(graph), "race"),
                   1.0 + 2 * kPublishesPerThread);
  std::remove(path.c_str());
}

TEST(ServeBudgetTest, BudgetReplyStaysOneLineForAnyLedgerPath) {
  // The budget reply is one newline-JSON line; a ledger path holding a
  // newline (a legal file name) must not split it, and quotes and
  // backslashes in it must come out escaped.
  const std::string path = LedgerPath("new\nline\"q\\");
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 5);
  {
    InferenceServer server = MakeServer("nl", artifact, graph, path);
    const std::string budget = server.BudgetJson();
    EXPECT_EQ(budget.find('\n'), std::string::npos) << budget;
    EXPECT_NE(budget.find("_new line\\\"q\\\\.ledger\""), std::string::npos)
        << budget;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gcon
