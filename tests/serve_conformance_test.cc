// Wire-protocol conformance: golden newline-JSON request/response
// transcripts replayed against the real TCP front end, byte-compared
// (memcmp via std::string ==) so the wire format can never drift silently.
// Covers the valid single-model/multi-model/inductive paths, unknown-model,
// malformed-JSON (including id recovery when the defect precedes the id
// key), feature-length-mismatch, oversized lines, the admin verbs, and
// response-format locks on exactly-representable doubles.
//
// On a transcript mismatch the test appends a "request / golden / actual"
// block to serve_conformance_failure.txt in the working directory — CI
// uploads it so a drift is diagnosable from the artifact alone.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <optional>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "nn/mlp.h"
#include "common/string_util.h"
#include "rng/rng.h"
#include "serve_test_util.h"
#include "serve/fault_injection.h"
#include "serve/inference_session.h"
#include "serve/serve_error.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace gcon {
namespace {

constexpr const char* kFailureLog = "serve_conformance_failure.txt";

using serve_test::AugmentGraph;
using serve_test::SyntheticArtifact;

/// Blocking line-oriented client over a raw socket — the two-lines-of-any-
/// language client the wire format promises, in test form.
class WireClient {
 public:
  explicit WireClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    GCON_ASSERT_OK(fd_ >= 0, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    GCON_ASSERT_OK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0,
                   "connect");
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  }
  void SendLine(const std::string& line) { Send(line + "\n"); }

  /// Next response line (without the newline); "" on EOF.
  std::string ReadLine() {
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        const std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool AtEof() {
    if (!buffer_.empty()) return false;
    char byte;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  static void GCON_ASSERT_OK(bool ok, const char* what) {
    if (!ok) {
      FAIL() << what << ": " << std::strerror(errno);
    }
  }
  int fd_ = -1;
  std::string buffer_;
};

/// One golden exchange: the request line and the exact expected response.
struct GoldenCase {
  std::string name;
  std::string request;
  std::string expected;
};

void RecordMismatch(const GoldenCase& c, const std::string& actual) {
  std::ofstream log(kFailureLog, std::ios::app);
  log << "case:    " << c.name << "\nrequest: " << c.request
      << "\ngolden:  " << c.expected << "\nactual:  " << actual << "\n\n";
}

void ReplayGoldens(WireClient* client, const std::vector<GoldenCase>& cases) {
  for (const GoldenCase& c : cases) {
    client->SendLine(c.request);
    const std::string actual = client->ReadLine();
    if (actual != c.expected) RecordMismatch(c, actual);
    EXPECT_EQ(actual, c.expected) << c.name << " (diff appended to "
                                  << kFailureLog << ")";
  }
}

/// The expected wire line for a query answered by row `row` of `logits`.
std::string GoldenResponse(std::int64_t id, int node, const Matrix& logits,
                           std::size_t row) {
  ServeResponse response;
  response.id = id;
  response.node = node;
  response.label = static_cast<int>(RowArgMax(logits, row));
  response.logits = logits.RowCopy(row);
  return FormatWireResponse(response);
}

/// Server fixture: two synthetic models ("default", "alt") over the tiny
/// graph behind the real TCP front end on an ephemeral port.
class ServeConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = serve_test::TestGraph(9);
    default_artifact_ = SyntheticArtifact(graph_, {0, 2}, 8, 3);
    alt_artifact_ = SyntheticArtifact(graph_, {2}, 8, 101);
    offline_default_ = default_artifact_->Infer(graph_);
    offline_alt_ = alt_artifact_->Infer(graph_);

    std::vector<ModelRouter::NamedModel> models;
    models.push_back({"default", InferenceSession(*default_artifact_, graph_)});
    models.push_back({"alt", InferenceSession(*alt_artifact_, graph_)});
    ServeOptions options;
    options.max_batch = 8;
    // Bounded queue so the 'overloaded' rejection golden can quote a fixed
    // max_queue; large enough that no conformance stream ever fills it.
    options.max_queue = 64;
    FaultInjector::Global().Reset();
    server_ = std::make_unique<InferenceServer>(std::move(models), options);
    listener_ = std::thread([this] {
      RunTcpServer(server_.get(), /*port=*/0, &shutdown_, &port_);
    });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void TearDown() override {
    shutdown_.store(true, std::memory_order_release);
    listener_.join();
    server_.reset();
    FaultInjector::Global().Reset();
  }

  int port() const { return port_.load(std::memory_order_acquire); }

  Graph graph_;
  std::optional<GconArtifact> default_artifact_;
  std::optional<GconArtifact> alt_artifact_;
  Matrix offline_default_;
  Matrix offline_alt_;
  std::unique_ptr<InferenceServer> server_;
  std::thread listener_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> port_{0};
};

// --- Response-format locks (pure, no server) -------------------------------

TEST(WireFormatLock, ResponseLineIsByteStable) {
  // Exactly-representable doubles print without rounding, so this literal
  // is the wire format — a byte of drift (key order, spacing, precision
  // policy) fails the memcmp.
  ServeResponse response;
  response.id = 3;
  response.node = 1;
  response.label = 0;
  response.logits = {0.5, -0.25, 2};
  EXPECT_EQ(FormatWireResponse(response),
            "{\"id\": 3, \"node\": 1, \"label\": 0, "
            "\"logits\": [0.5, -0.25, 2]}");
}

TEST(WireFormatLock, ErrorLineIsByteStableAndEscaped) {
  EXPECT_EQ(FormatWireError(7, "bad \"key\" with \\ and\nnewline"),
            "{\"id\": 7, \"error\": \"bad \\\"key\\\" with \\\\ and "
            "newline\"}");
}

// --- Golden transcripts over TCP -------------------------------------------

TEST_F(ServeConformanceTest, ValidQueriesMatchOfflineGoldens) {
  WireClient client(port());
  std::vector<GoldenCase> cases;
  cases.push_back({"default-model node query", "{\"id\": 1, \"node\": 12}",
                   GoldenResponse(1, 12, offline_default_, 12)});
  cases.push_back({"explicit default route",
                   "{\"id\": 2, \"model\": \"default\", \"node\": 12}",
                   GoldenResponse(2, 12, offline_default_, 12)});
  cases.push_back({"routed to alt model",
                   "{\"id\": 3, \"model\": \"alt\", \"node\": 12}",
                   GoldenResponse(3, 12, offline_alt_, 12)});
  cases.push_back({"private edge list ignored junk",
                   "{\"id\": 4, \"node\": 0, \"edges\": []}",
                   [&] {
                     ServeRequest request;
                     request.id = 4;
                     request.node = 0;
                     request.has_edges = true;
                     const InferenceSession session(*default_artifact_,
                                                    graph_);
                     ServeResponse response;
                     response.id = 4;
                     response.node = 0;
                     response.logits = session.QueryLogits(request);
                     Matrix one(1, response.logits.size());
                     std::copy(response.logits.begin(),
                               response.logits.end(), one.RowPtr(0));
                     response.label = static_cast<int>(RowArgMax(one, 0));
                     return FormatWireResponse(response);
                   }()});
  ReplayGoldens(&client, cases);
}

TEST_F(ServeConformanceTest, InductiveQueryMatchesAugmentedOfflineGolden) {
  // The feature vector is written with exactly-representable values so the
  // request line itself is byte-stable too.
  const int d0 = graph_.feature_dim();
  std::vector<double> features(static_cast<std::size_t>(d0), 0.0);
  features[0] = 0.5;
  features[1] = 1.0;
  features[2] = 0.25;
  std::ostringstream request;
  request << "{\"id\": 21, \"features\": [";
  for (int j = 0; j < d0; ++j) {
    request << (j == 0 ? "" : ", ") << features[static_cast<std::size_t>(j)];
  }
  request << "], \"edges\": [0, 5]}";

  // Offline side: the shared augmentation helper appends the query node
  // at index n — the same construction every serving suite compares
  // against.
  const int n = graph_.num_nodes();
  const Matrix offline =
      default_artifact_->Infer(AugmentGraph(graph_, features, {0, 5}));

  ServeResponse expected;
  expected.id = 21;
  expected.node = -1;
  expected.label = static_cast<int>(
      RowArgMax(offline, static_cast<std::size_t>(n)));
  expected.logits = offline.RowCopy(static_cast<std::size_t>(n));

  WireClient client(port());
  ReplayGoldens(&client, {{"inductive feature-carrying query", request.str(),
                           FormatWireResponse(expected)}});
}

TEST_F(ServeConformanceTest, ErrorGoldensIncludingRecoveredIds) {
  WireClient client(port());
  std::vector<GoldenCase> cases;
  cases.push_back({"unknown model",
                   "{\"id\": 5, \"model\": \"nope\", \"node\": 1}",
                   "{\"id\": 5, \"error\": \"unknown model 'nope' "
                   "(serving: default, alt)\"}"});
  cases.push_back({"unknown key", "{\"id\": 9, \"nodes\": 1}",
                   "{\"id\": 9, \"error\": \"unknown key 'nodes' (want id, "
                   "node, edges, features, model, deadline_us, path, or "
                   "cmd)\"}"});
  // Regression (the id used to be dropped): the defect precedes the "id"
  // key, but the error line must still echo id 12 so a pipelined client
  // can correlate the failure.
  cases.push_back({"id recovered past the defect",
                   "{\"nodes\": 1, \"id\": 12}",
                   "{\"id\": 12, \"error\": \"unknown key 'nodes' (want id, "
                   "node, edges, features, model, deadline_us, path, or "
                   "cmd)\"}"});
  cases.push_back({"not an object", "predict 5",
                   "{\"id\": 0, \"error\": \"request must be a {...} "
                   "object\"}"});
  cases.push_back({"empty object", "{}",
                   "{\"id\": 0, \"error\": \"query needs a 'node' or "
                   "'features' key\"}"});
  cases.push_back({"trailing garbage", "{\"id\": 2, \"node\": 1} trailing",
                   "{\"id\": 2, \"error\": \"trailing garbage after the "
                   "request object\"}"});
  cases.push_back({"feature length mismatch",
                   "{\"id\": 4, \"features\": [1, 2, 3]}",
                   "{\"id\": 4, \"error\": \"query features have 3 values "
                   "but the encoder expects " +
                       std::to_string(graph_.feature_dim()) + "\"}"});
  cases.push_back({"node out of range", "{\"id\": 6, \"node\": 99999}",
                   "{\"id\": 6, \"error\": \"node 99999 out of range [0, " +
                       std::to_string(graph_.num_nodes()) + ")\"}"});
  // -1 is the "no node" sentinel; letting a negative through would make
  // {"node": -1, "features": [...]} dodge the either/or validation, so
  // the parser rejects it outright.
  cases.push_back({"negative node rejected at parse",
                   "{\"id\": 7, \"node\": -1, \"features\": [1]}",
                   "{\"id\": 7, \"error\": \"key 'node' wants a "
                   "non-negative integer\"}"});
  cases.push_back({"node and features together",
                   "{\"id\": 8, \"node\": 1, \"features\": [1]}",
                   "{\"id\": 8, \"error\": \"a query carries either 'node' "
                   "or 'features', not both\"}"});
  cases.push_back({"unknown cmd", "{\"id\": 3, \"cmd\": \"reboot\"}",
                   "{\"id\": 3, \"error\": \"unknown cmd 'reboot' (want "
                   "stats, list_models, publish, budget, drain, metrics, "
                   "trace, or quit)\"}"});
  cases.push_back({"non-positive deadline",
                   "{\"id\": 13, \"node\": 1, \"deadline_us\": 0}",
                   "{\"id\": 13, \"error\": \"key 'deadline_us' wants a "
                   "positive integer\"}"});
  cases.push_back({"path without publish",
                   "{\"id\": 14, \"node\": 1, \"path\": \"/tmp/x\"}",
                   "{\"id\": 14, \"error\": \"key 'path' is only valid with "
                   "cmd 'publish'\"}"});
  ReplayGoldens(&client, cases);
}

TEST_F(ServeConformanceTest, AdminVerbGoldens) {
  WireClient client(port());
  std::ostringstream list_models;
  list_models << "{\"models\": [{\"name\": \"default\", \"nodes\": "
              << graph_.num_nodes() << ", \"classes\": "
              << graph_.num_classes() << ", \"features\": "
              << graph_.feature_dim()
              << ", \"per_query\": true}, {\"name\": \"alt\", \"nodes\": "
              << graph_.num_nodes() << ", \"classes\": "
              << graph_.num_classes() << ", \"features\": "
              << graph_.feature_dim()
              << ", \"per_query\": true}], \"default\": \"default\"}";
  ReplayGoldens(&client, {{"list_models", "{\"cmd\": \"list_models\"}",
                           list_models.str()}});

  // Stats carries timings — not goldenable byte-for-byte, but its shape is
  // locked: aggregate counters first, then the per-model array.
  client.SendLine("{\"id\": 1, \"node\": 0}");
  client.ReadLine();
  client.SendLine("{\"cmd\": \"stats\"}");
  const std::string stats = client.ReadLine();
  EXPECT_EQ(stats.rfind("{\"queries\": ", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"models\": [{\"name\": \"default\", "),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("{\"name\": \"alt\", "), std::string::npos) << stats;
}

TEST_F(ServeConformanceTest, PipelinedErrorFlushesAfterEarlierResponses) {
  // A malformed line pipelined behind a valid query must not jump the
  // queue: the valid response flushes first, then the error line.
  WireClient client(port());
  client.Send("{\"id\": 40, \"node\": 7}\n{\"id\": 41, \"nodes\": 7}\n");
  EXPECT_EQ(client.ReadLine(), GoldenResponse(40, 7, offline_default_, 7));
  EXPECT_EQ(client.ReadLine(),
            "{\"id\": 41, \"error\": \"unknown key 'nodes' (want id, node, "
            "edges, features, model, deadline_us, path, or cmd)\"}");
}

TEST_F(ServeConformanceTest, OversizedLineGetsErrorAndDisconnect) {
  WireClient client(port());
  // An id early in the line is recoverable even though the line never
  // completes; the server reports the cap and hangs up.
  std::string huge = "{\"id\": 77, \"features\": [";
  huge.append(kMaxWireLineBytes + 1024, '1');
  client.Send(huge);  // no newline — the cap must trip on the partial line
  EXPECT_EQ(client.ReadLine(),
            "{\"id\": 77, \"error\": \"oversized request line (limit " +
                std::to_string(kMaxWireLineBytes) + " bytes)\"}");
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServeConformanceTest, QuitClosesTheConnection) {
  WireClient client(port());
  client.SendLine("{\"id\": 1, \"node\": 0}");
  EXPECT_EQ(client.ReadLine(), GoldenResponse(1, 0, offline_default_, 0));
  client.SendLine("{\"cmd\": \"quit\"}");
  EXPECT_TRUE(client.AtEof());
}

// --- Coded rejection goldens (overload / deadline / draining) --------------

TEST(WireFormatLock, CodedErrorLineIsByteStable) {
  EXPECT_EQ(FormatWireError(7, ServeErrorCode::kOverloaded, "full"),
            "{\"id\": 7, \"code\": \"overloaded\", \"error\": \"full\"}");
  EXPECT_EQ(
      FormatWireError(8, ServeErrorCode::kDeadlineExceeded, "late"),
      "{\"id\": 8, \"code\": \"deadline_exceeded\", \"error\": \"late\"}");
  EXPECT_EQ(FormatWireError(9, ServeErrorCode::kDraining, "bye"),
            "{\"id\": 9, \"code\": \"draining\", \"error\": \"bye\"}");
  EXPECT_EQ(
      FormatWireError(10, ServeErrorCode::kBudgetExhausted, "cap"),
      "{\"id\": 10, \"code\": \"budget_exhausted\", \"error\": \"cap\"}");
}

TEST_F(ServeConformanceTest, OverloadedRejectionGoldenAndCleanRetry) {
  WireClient client(port());
  // The injected queue-full makes the admission path deterministic; the
  // golden locks the exact coded line a throttled client must parse.
  FaultInjector::Global().Arm(Fault::kQueueFull, 1);
  ReplayGoldens(
      &client,
      {{"overloaded rejection", "{\"id\": 50, \"node\": 2}",
        "{\"id\": 50, \"code\": \"overloaded\", \"error\": \"model queue "
        "full (max_queue=64); retry later\"}"},
       // The rejection is per-submission, not per-connection: the retry on
       // the same socket is admitted and served bitwise.
       {"retry after overload", "{\"id\": 50, \"node\": 2}",
        GoldenResponse(50, 2, offline_default_, 2)}});
  // The rejection shows up in the stats counters a monitor scrapes.
  client.SendLine("{\"cmd\": \"stats\"}");
  const std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("\"rejected_overload\": 1"), std::string::npos)
      << stats;
}

TEST_F(ServeConformanceTest, DeadlineExceededRejectionGolden) {
  WireClient client(port());
  // The slow-handler fault sleeps after the batch is taken and before the
  // deadline check, so a 1us deadline is deterministically expired.
  FaultInjector::Global().Arm(Fault::kSlowHandler, 1);
  ReplayGoldens(
      &client,
      {{"deadline exceeded in queue",
        "{\"id\": 51, \"node\": 3, \"deadline_us\": 1}",
        "{\"id\": 51, \"code\": \"deadline_exceeded\", \"error\": \"query "
        "deadline expired before execution\"}"},
       // A roomy deadline changes nothing about the served bits.
       {"roomy deadline serves normally",
        "{\"id\": 52, \"node\": 3, \"deadline_us\": 30000000}",
        GoldenResponse(52, 3, offline_default_, 3)}});
}

TEST_F(ServeConformanceTest, DrainGoldensThenRejectsWithCode) {
  WireClient client(port());
  ReplayGoldens(
      &client,
      {{"query before drain", "{\"id\": 60, \"node\": 1}",
        GoldenResponse(60, 1, offline_default_, 1)},
       {"drain verb", "{\"cmd\": \"drain\"}", "{\"draining\": true}"},
       {"query after drain is refused with the coded line",
        "{\"id\": 61, \"node\": 1}",
        "{\"id\": 61, \"code\": \"draining\", \"error\": \"server draining; "
        "not accepting new queries\"}"}});
}

// --- Publish (atomic hot-swap) goldens -------------------------------------

TEST_F(ServeConformanceTest, PublishGoldensAndSwappedModelServesNewBits) {
  // A third artifact on disk — the thing an offline training run hands the
  // live server.
  const GconArtifact next = SyntheticArtifact(graph_, {0, 2}, 8, 202);
  const Matrix offline_next = next.Infer(graph_);
  const std::string path = "/tmp/gcon_conformance_publish.model";
  SaveModel(next, path);

  WireClient client(port());
  std::ostringstream published;
  // Construction charged alt's artifact epsilon (1.0) against the ledger;
  // this publish charges another 1.0, so the release's own epsilon is 1 and
  // the model's cumulative total after it is 2.
  published << "{\"published\": \"alt\", \"nodes\": " << graph_.num_nodes()
            << ", \"classes\": " << graph_.num_classes()
            << ", \"features\": " << graph_.feature_dim()
            << ", \"per_query\": true, \"epsilon\": 1, "
            << "\"epsilon_total\": 2}";
  std::vector<GoldenCase> cases;
  cases.push_back({"alt before swap",
                   "{\"id\": 70, \"model\": \"alt\", \"node\": 12}",
                   GoldenResponse(70, 12, offline_alt_, 12)});
  cases.push_back({"publish over alt",
                   "{\"id\": 71, \"cmd\": \"publish\", \"model\": \"alt\", "
                   "\"path\": \"" + path + "\"}",
                   published.str()});
  cases.push_back({"alt after swap serves the new artifact's bits",
                   "{\"id\": 72, \"model\": \"alt\", \"node\": 12}",
                   GoldenResponse(72, 12, offline_next, 12)});
  // The default model is untouched by the alt swap.
  cases.push_back({"default unaffected", "{\"id\": 73, \"node\": 12}",
                   GoldenResponse(73, 12, offline_default_, 12)});
  cases.push_back({"publish unknown model",
                   "{\"id\": 74, \"cmd\": \"publish\", \"model\": \"nope\", "
                   "\"path\": \"" + path + "\"}",
                   "{\"id\": 74, \"error\": \"unknown model 'nope' "
                   "(serving: default, alt)\"}"});
  cases.push_back({"publish without path",
                   "{\"id\": 75, \"cmd\": \"publish\", \"model\": \"alt\"}",
                   "{\"id\": 75, \"error\": \"cmd 'publish' needs a 'path' "
                   "naming the artifact file\"}"});
  ReplayGoldens(&client, cases);
  std::remove(path.c_str());
}

TEST_F(ServeConformanceTest, HotSwapDuringLiveStreamDropsNothing) {
  // The tentpole acceptance scenario: a client streams pipelined queries
  // while a publish lands on a second connection mid-stream. Every one of
  // the streamed queries must be answered (zero drops), and every answer
  // must be bitwise EITHER the old version's offline row or the new one's
  // — a torn swap would produce a row matching neither.
  const GconArtifact next = SyntheticArtifact(graph_, {2}, 8, 203);
  const Matrix offline_next = next.Infer(graph_);
  const std::string path = "/tmp/gcon_conformance_swap.model";
  SaveModel(next, path);

  // Stays under the fixture's max_queue=64 so admission control (tested
  // elsewhere) cannot shed part of this stream — here every query must be
  // accepted, or the zero-drop assertion is vacuous.
  constexpr int kQueries = 60;
  const int n = graph_.num_nodes();
  WireClient streamer(port());
  std::ostringstream burst;
  for (int q = 0; q < kQueries; ++q) {
    burst << "{\"id\": " << (100 + q) << ", \"model\": \"alt\", \"node\": "
          << (q % n) << "}\n";
  }
  streamer.Send(burst.str());

  WireClient publisher(port());
  publisher.SendLine("{\"cmd\": \"publish\", \"model\": \"alt\", \"path\": "
                     "\"" + path + "\"}");

  int from_old = 0;
  int from_new = 0;
  for (int q = 0; q < kQueries; ++q) {
    const std::string line = streamer.ReadLine();
    ASSERT_FALSE(line.empty()) << "response " << q
                               << " dropped across the swap window";
    const int node = q % n;
    const std::string old_golden =
        GoldenResponse(100 + q, node, offline_alt_, node);
    const std::string new_golden =
        GoldenResponse(100 + q, node, offline_next, node);
    if (line == old_golden) {
      ++from_old;
    } else if (line == new_golden) {
      ++from_new;
    } else {
      RecordMismatch({"hot-swap stream", "(streamed)", old_golden}, line);
      ADD_FAILURE() << "response " << q
                    << " matches neither version bitwise: " << line;
    }
  }
  EXPECT_EQ(from_old + from_new, kQueries);
  // The publish response confirms the swap itself succeeded...
  EXPECT_EQ(publisher.ReadLine().rfind("{\"published\": \"alt\", ", 0), 0u);
  // ...and once it has, a fresh query is the new version, bitwise.
  streamer.SendLine("{\"id\": 999, \"model\": \"alt\", \"node\": 0}");
  EXPECT_EQ(streamer.ReadLine(),
            GoldenResponse(999, 0, offline_next, 0));
  std::remove(path.c_str());
}

// --- Budget verb + enforcement goldens -------------------------------------

TEST_F(ServeConformanceTest, BudgetVerbGoldenTracksCumulativeSpend) {
  // Construction charged each model's artifact epsilon (1.0, delta 1e-5)
  // against the server's in-memory ledger. The golden locks the response's
  // field order and number-formatting policy; publish counts and doubles
  // are streamed through the same classic-locale precision-17 formatter
  // the server uses, so a formatting-policy drift fails the byte compare.
  const auto budget_golden = [](double default_eps, int default_pubs,
                                double alt_eps, int alt_pubs) {
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out.precision(17);
    out << "{\"budget\": [{\"model\": \"default\", \"epsilon\": "
        << default_eps << ", \"delta\": " << default_pubs * 1e-5
        << ", \"publishes\": " << default_pubs
        << ", \"cap\": 0}, {\"model\": \"alt\", \"epsilon\": " << alt_eps
        << ", \"delta\": " << alt_pubs * 1e-5
        << ", \"publishes\": " << alt_pubs
        << ", \"cap\": 0}], \"ledger\": \"\", \"persistent\": false}";
    return out.str();
  };

  WireClient client(port());
  ReplayGoldens(&client, {{"budget after construction",
                           "{\"cmd\": \"budget\"}",
                           budget_golden(1.0, 1, 1.0, 1)}});

  // A publish over alt adds its release to alt's cumulative spend; the
  // default model's row is untouched.
  const GconArtifact next = SyntheticArtifact(graph_, {2}, 8, 305);
  const std::string path = "/tmp/gcon_conformance_budget.model";
  SaveModel(next, path);
  client.SendLine("{\"id\": 90, \"cmd\": \"publish\", \"model\": \"alt\", "
                  "\"path\": \"" + path + "\"}");
  ASSERT_EQ(client.ReadLine().rfind("{\"published\": \"alt\", ", 0), 0u);
  ReplayGoldens(&client, {{"budget after publish", "{\"cmd\": \"budget\"}",
                           budget_golden(1.0, 1, 2.0, 2)}});
  std::remove(path.c_str());
}

TEST(ServeBudgetEnforcementConformance, OverCapPublishRefusedOldBitsServe) {
  // A capped server: construction spends 1.0 of the 1.5 cap, so the next
  // 1.0-epsilon publish must be refused with the structured coded line —
  // and the refusal must leave the old artifact serving bitwise with the
  // budget unspent.
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const Matrix offline = artifact.Infer(graph);
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"default", InferenceSession(artifact, graph)});
  ServeOptions options;
  options.max_batch = 4;
  options.budget_cap = 1.5;
  InferenceServer server(std::move(models), options);
  std::atomic<bool> shutdown{false};
  std::atomic<int> port{0};
  std::thread listener(
      [&] { RunTcpServer(&server, /*port=*/0, &shutdown, &port); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const GconArtifact next = SyntheticArtifact(graph, {2}, 8, 404);
  const std::string path = "/tmp/gcon_conformance_overcap.model";
  SaveModel(next, path);

  WireClient client(port.load(std::memory_order_acquire));
  std::vector<GoldenCase> cases;
  cases.push_back({"over-cap publish refused with the coded line",
                   "{\"id\": 80, \"cmd\": \"publish\", \"model\": "
                   "\"default\", \"path\": \"" + path + "\"}",
                   "{\"id\": 80, \"code\": \"budget_exhausted\", \"error\": "
                   "\"release of model 'default' refused: cumulative epsilon "
                   "1 + 1 exceeds budget cap 1.5\"}"});
  cases.push_back({"old bits still serve after the refusal",
                   "{\"id\": 81, \"node\": 12}",
                   GoldenResponse(81, 12, offline, 12)});
  cases.push_back({"refused publish spent nothing",
                   "{\"cmd\": \"budget\"}",
                   "{\"budget\": [{\"model\": \"default\", \"epsilon\": 1, "
                   "\"delta\": 1.0000000000000001e-05, \"publishes\": 1, "
                   "\"cap\": 1.5, \"remaining\": 0.5}], \"ledger\": \"\", "
                   "\"persistent\": false}"});
  ReplayGoldens(&client, cases);

  shutdown.store(true, std::memory_order_release);
  listener.join();
  std::remove(path.c_str());
}

// --- Number parsing: range policy + locale independence --------------------

/// Parses a query line and exposes its features (the double-parsing path).
bool ParseFeatures(const std::string& line, ServeRequest* request) {
  WireCommand command;
  std::string error;
  return ParseWireRequest(line, &command, request, &error);
}

TEST(WireParseLock, RangePolicyMatchesStrtodEra) {
  // The std::from_chars migration must not move the goalposts the strtod
  // era set: subnormals parse exactly, magnitudes below the smallest
  // subnormal are values (signed zero), not defects; only overflow — a
  // magnitude no double can hold — rejects. from_chars reports both range
  // failures with one errc, so this lock is what keeps the
  // underflow/overflow split honest.
  ServeRequest request;
  ASSERT_TRUE(ParseFeatures("{\"id\": 1, \"features\": [1e-310]}", &request));
  EXPECT_EQ(request.features[0], 1e-310);

  ASSERT_TRUE(ParseFeatures("{\"id\": 1, \"features\": [1e-999, -1e-999]}",
                            &request));
  EXPECT_EQ(request.features[0], 0.0);
  EXPECT_FALSE(std::signbit(request.features[0]));
  EXPECT_EQ(request.features[1], 0.0);
  EXPECT_TRUE(std::signbit(request.features[1]));

  // Underflow spelled without an exponent underflows all the same.
  const std::string tiny =
      "{\"id\": 1, \"features\": [0." + std::string(400, '0') + "1]}";
  ASSERT_TRUE(ParseFeatures(tiny, &request));
  EXPECT_EQ(request.features[0], 0.0);

  EXPECT_FALSE(ParseFeatures("{\"id\": 1, \"features\": [1e999]}", &request));
  EXPECT_FALSE(ParseFeatures("{\"id\": 1, \"features\": [-1e999]}", &request));

  // strtod-era spellings stay valid: explicit leading '+', '+' exponents.
  ASSERT_TRUE(
      ParseFeatures("{\"id\": 1, \"features\": [+1.5, 1e+2]}", &request));
  EXPECT_EQ(request.features[0], 1.5);
  EXPECT_EQ(request.features[1], 100.0);

  // Half-parses still fail whole.
  EXPECT_FALSE(ParseFeatures("{\"id\": 1, \"features\": [1e]}", &request));
  EXPECT_FALSE(ParseFeatures("{\"id\": 1, \"features\": [.]}", &request));
}

TEST(WireParseLock, StringEscapesDecodeWhatWritersEscape) {
  // `gcon_cli retrain` writes its publish line through EscapeJson, so the
  // parser must undo exactly that: \\ is one backslash, \" one quote.
  WireCommand command;
  ServeRequest request;
  std::string error;
  ASSERT_TRUE(ParseWireRequest(
      R"({"cmd": "publish", "path": "/tmp/a\\b.model"})", &command, &request,
      &error))
      << error;
  EXPECT_EQ(command, WireCommand::kPublish);
  EXPECT_EQ(request.path, "/tmp/a\\b.model");
  ASSERT_TRUE(ParseWireRequest(
      R"({"cmd": "publish", "path": "/tmp/a\"b.model"})", &command, &request,
      &error))
      << error;
  EXPECT_EQ(request.path, "/tmp/a\"b.model");

  // Whatever EscapeJson writes parses back to the string it escaped.
  const std::string model = "m\"x\\";
  const std::string path = "/d\\ir/\"q\".model\\";
  ASSERT_TRUE(ParseWireRequest("{\"cmd\": \"publish\", \"model\": \"" +
                                   EscapeJson(model) + "\", \"path\": \"" +
                                   EscapeJson(path) + "\"}",
                               &command, &request, &error))
      << error;
  EXPECT_EQ(request.model, model);
  EXPECT_EQ(request.path, path);

  // Any other escape is refused by name.
  EXPECT_FALSE(ParseWireRequest(R"({"cmd": "publish", "path": "/tmp/a\nb"})",
                                &command, &request, &error));
  EXPECT_EQ(error, R"(unsupported escape '\n' in a string )"
                   R"((only \" and \\ are decoded))");
  EXPECT_FALSE(
      ParseWireRequest(R"({"id": 1, "mo\u0064el": "x"})", &command, &request,
                       &error));
  EXPECT_NE(error.find("'\\u'"), std::string::npos) << error;
}

/// Flips the global C++ locale (which also flips the C locale glibc's
/// strtod consulted) for one scope.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& loc)
      : previous_(std::locale::global(loc)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

TEST(WireLocale, ParsingAndFormattingIgnoreCommaDecimalLocale) {
  // The defect this guards against: strtod honors LC_NUMERIC, so a host
  // process in a de_DE-style locale (decimal comma) would stop parsing
  // "0.5" at the '.' and reject the line, and un-imbued ostringstreams
  // would print "0,5" back. from_chars + classic-imbued formatters make
  // the wire locale-invariant; this test proves it by flipping the global
  // locale and byte-comparing both directions against the C-locale bytes.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                              "fr_FR.UTF-8", "fr_FR.utf8", "it_IT.UTF-8"};
  std::optional<std::locale> comma_locale;
  for (const char* name : candidates) {
    try {
      comma_locale.emplace(name);
      break;
    } catch (const std::runtime_error&) {
      // not installed on this host; try the next spelling
    }
  }
  if (!comma_locale.has_value()) {
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }

  const std::string request_line =
      "{\"id\": 7, \"features\": [0.5, -2.25e1, 1234.0625]}";
  ServeResponse response;
  response.id = 7;
  response.node = 1234567;  // integer grouping would corrupt this
  response.label = 1;
  response.logits = {0.5, -22.5, 1234.0625};

  ServeRequest reference_request;
  ASSERT_TRUE(ParseFeatures(request_line, &reference_request));
  const std::string reference_response = FormatWireResponse(response);
  const std::string reference_error =
      FormatWireError(1234567, ServeErrorCode::kOverloaded, "full");

  {
    ScopedGlobalLocale flipped(*comma_locale);
    ServeRequest request;
    ASSERT_TRUE(ParseFeatures(request_line, &request))
        << "comma-decimal locale broke feature parsing";
    ASSERT_EQ(request.features.size(), reference_request.features.size());
    for (std::size_t j = 0; j < request.features.size(); ++j) {
      EXPECT_EQ(request.features[j], reference_request.features[j]);
    }
    EXPECT_EQ(FormatWireResponse(response), reference_response);
    EXPECT_EQ(FormatWireError(1234567, ServeErrorCode::kOverloaded, "full"),
              reference_error);
  }
}

}  // namespace
}  // namespace gcon
