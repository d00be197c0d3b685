// Chaos suite for the serving tier: every injected fault must yield a
// structured error or a clean retry — never a crash, a hang, or wrong
// bits. Each scenario arms one FaultInjector site (queue-full admission,
// slow handler ahead of the deadline check, mid-batch handler throw, torn
// TCP socket, publish-during-batch) and asserts the failure is contained:
// the rejected query gets its coded ServeError, every *other* query gets
// its bitwise-offline answer, and the process keeps serving afterwards.
//
// Also home to the Stop-racing-Submit, drain and TCP shutdown lifecycle
// tests — the shutdown races the sanitizer matrix (TSan in particular)
// must see — and to the connection-loop scenarios run on both transports
// (torn socket, half-closed client).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "linalg/ops.h"
#include "serve_test_util.h"
#include "serve/batcher.h"
#include "serve/fault_injection.h"
#include "serve/frame.h"
#include "serve/inference_session.h"
#include "serve/serve_error.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace gcon {
namespace {

using serve_test::BitwiseEqualRow;
using serve_test::SyntheticArtifact;
using serve_test::TestGraph;

/// Every chaos test disarms the global injector on the way out so a fault
/// can never leak into a later test (the injector is process-wide).
class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// --- The injector itself ---------------------------------------------------

TEST_F(ServeChaosTest, ArmFromSpecParsesCountsAndRejectsJunk) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_TRUE(injector.ArmFromSpec("queue_full:3,torn_socket"));
  EXPECT_TRUE(injector.ShouldFire(Fault::kQueueFull));
  EXPECT_TRUE(injector.ShouldFire(Fault::kQueueFull));
  EXPECT_TRUE(injector.ShouldFire(Fault::kQueueFull));
  EXPECT_FALSE(injector.ShouldFire(Fault::kQueueFull));
  EXPECT_TRUE(injector.ShouldFire(Fault::kTornSocket));
  EXPECT_FALSE(injector.ShouldFire(Fault::kTornSocket));
  EXPECT_EQ(injector.fired(Fault::kQueueFull), 3u);
  injector.Reset();
  EXPECT_FALSE(injector.ArmFromSpec("no_such_fault"));
  EXPECT_FALSE(injector.ArmFromSpec("queue_full:zero"));
  EXPECT_FALSE(injector.ArmFromSpec("queue_full:0"));
  // Disarmed again after Reset: the fast path must answer false.
  injector.Reset();
  EXPECT_FALSE(injector.ShouldFire(Fault::kQueueFull));
  EXPECT_EQ(injector.fired(Fault::kQueueFull), 0u);
}

// --- Overload: structured rejection, clean retry ---------------------------

TEST_F(ServeChaosTest, InjectedQueueFullRejectsWithCodeAndRetrySucceeds) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 41);
  const Matrix offline = artifact.Infer(graph);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});

  FaultInjector::Global().Arm(Fault::kQueueFull, 1);
  ServeRequest request;
  request.id = 1;
  request.node = 3;
  try {
    server.Query(request);
    FAIL() << "expected ServeError(kOverloaded)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  // The fault fired once; the retry is a clean admit with offline bits.
  const ServeResponse response = server.Query(request);
  EXPECT_TRUE(BitwiseEqualRow(offline, 3, response.logits));
  const std::string stats = server.StatsJson();
  EXPECT_NE(stats.find("\"rejected_overload\": 1"), std::string::npos)
      << stats;
}

TEST_F(ServeChaosTest, RealOverloadBoundedQueueShedsAndNeverHangs) {
  // A handler gated shut while submissions flood in: the queue must stop
  // at max_queue (shedding the rest with kOverloaded), and once the gate
  // opens every accepted query must resolve.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  ServeOptions options;
  options.max_batch = 1;
  options.max_queue = 4;
  MicroBatcher batcher(options, [&](std::vector<PendingQuery*>& batch) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
    for (PendingQuery* p : batch) p->response.label = p->request.node;
  });

  std::vector<std::pair<int, ServeFuture>> accepted;
  int rejected = 0;
  for (int i = 0; i < 32; ++i) {
    ServeRequest request;
    request.node = i;
    try {
      accepted.emplace_back(i, batcher.Submit(request));
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
      ++rejected;
    }
  }
  // Nothing runs a batch until a query is awaited: exactly max_queue pend.
  EXPECT_EQ(accepted.size(), 4u);
  EXPECT_EQ(accepted.size() + static_cast<std::size_t>(rejected), 32u);
  EXPECT_GE(rejected, 1);
  EXPECT_LE(batcher.queue_peak(0), 4u);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& [node, future] : accepted) {
    EXPECT_EQ(future.get().label, node);
  }
  EXPECT_EQ(batcher.rejected_overload(0),
            static_cast<std::uint64_t>(rejected));
  batcher.Stop();
}

// --- Deadlines -------------------------------------------------------------

TEST_F(ServeChaosTest, ExpiredDeadlineDropsBeforeExecutionWithCode) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 43);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  InferenceServer server(InferenceSession(artifact, graph), options);

  // The slow-handler fault sleeps AFTER the batch is taken and BEFORE the
  // deadline check, so a 1us deadline is deterministically expired by the
  // time the batch looks at it.
  FaultInjector::Global().set_slow_handler_us(20000);
  FaultInjector::Global().Arm(Fault::kSlowHandler, 1);
  ServeRequest doomed;
  doomed.id = 1;
  doomed.node = 5;
  doomed.deadline_us = 1;
  ServeFuture future = server.QueryAsync(doomed);
  try {
    future.get();
    FAIL() << "expected ServeError(kDeadlineExceeded)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kDeadlineExceeded);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
  // A roomy deadline serves normally, bitwise.
  ServeRequest fine;
  fine.id = 2;
  fine.node = 5;
  fine.deadline_us = 30 * 1000 * 1000;
  EXPECT_TRUE(BitwiseEqualRow(offline, 5, server.Query(fine).logits));
  const std::string stats = server.StatsJson();
  EXPECT_NE(stats.find("\"rejected_deadline\": 1"), std::string::npos)
      << stats;
}

// --- Mid-batch handler failure ---------------------------------------------

TEST_F(ServeChaosTest, MidBatchThrowFailsThatBatchOnlyAndServerRecovers) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 47);
  const Matrix offline = artifact.Infer(graph);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});

  FaultInjector::Global().Arm(Fault::kMidBatchThrow, 1);
  ServeRequest request;
  request.id = 1;
  request.node = 2;
  ServeFuture poisoned = server.QueryAsync(request);
  try {
    poisoned.get();
    FAIL() << "expected the injected handler failure";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("injected mid-batch fault"),
              std::string::npos);
  }
  // The batcher survived its handler throwing: the next query is served
  // with the exact offline bits.
  EXPECT_TRUE(BitwiseEqualRow(offline, 2, server.Query(request).logits));
}

// --- Hot-swap racing an in-flight batch ------------------------------------

TEST_F(ServeChaosTest, PublishInsideBatchWindowYieldsOldOrNewBitsOnly) {
  const Graph graph = TestGraph();
  const GconArtifact artifact_a = SyntheticArtifact(graph, {0, 2}, 8, 53);
  const GconArtifact artifact_b = SyntheticArtifact(graph, {2}, 8, 153);
  const Matrix offline_a = artifact_a.Infer(graph);
  const Matrix offline_b = artifact_b.Infer(graph);
  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(InferenceSession(artifact_a, graph), options);

  // The callback runs inside the handler, right after the batch snapshots
  // its session — the worst-case window for an atomic swap. That batch
  // must finish on its snapshot (A); later batches read B.
  FaultInjector::Global().SetCallback(Fault::kSwapDuringBatch, [&] {
    server.Publish("", InferenceSession(artifact_b, graph));
  });
  FaultInjector::Global().Arm(Fault::kSwapDuringBatch, 1);

  std::vector<ServeFuture> futures;
  for (int q = 0; q < 64; ++q) {
    ServeRequest request;
    request.id = q;
    request.node = q % graph.num_nodes();
    futures.push_back(server.QueryAsync(request));
  }
  int from_a = 0;
  int from_b = 0;
  for (int q = 0; q < 64; ++q) {
    const ServeResponse response =
        futures[static_cast<std::size_t>(q)].get();
    const auto row = static_cast<std::size_t>(q % graph.num_nodes());
    if (BitwiseEqualRow(offline_a, row, response.logits)) {
      ++from_a;
    } else if (BitwiseEqualRow(offline_b, row, response.logits)) {
      ++from_b;
    } else {
      ADD_FAILURE() << "query " << q
                    << " matches neither version bitwise (torn swap)";
    }
  }
  EXPECT_EQ(from_a + from_b, 64);
  EXPECT_EQ(FaultInjector::Global().fired(Fault::kSwapDuringBatch), 1u);
  // The swap completed: from here on, every answer is version B.
  ServeRequest after;
  after.node = 1;
  EXPECT_TRUE(BitwiseEqualRow(offline_b, 1, server.Query(after).logits));
}

TEST_F(ServeChaosTest, PublishRejectsDifferentPopulation) {
  const Graph graph = TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 57);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});
  // One extra node is a different population: every admitted request was
  // validated against the served graph, so the swap must refuse.
  const Graph bigger = serve_test::AugmentGraph(
      graph, std::vector<double>(
                 static_cast<std::size_t>(graph.feature_dim()), 0.0),
      {});
  const GconArtifact big_artifact = SyntheticArtifact(bigger, {2}, 8, 58);
  try {
    server.Publish("", InferenceSession(big_artifact, bigger));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("different population"),
              std::string::npos)
        << e.what();
  }
}

// --- Connections over real TCP --------------------------------------------

/// Minimal blocking client for the TCP chaos scenarios.
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // chaos scenarios tolerate a dead socket
      sent += static_cast<std::size_t>(n);
    }
  }
  void SendLine(const std::string& line) { Send(line + "\n"); }
  /// Half-close: the server reads EOF after everything already sent.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }
  /// Reads until EOF; returns everything received (possibly a torn line).
  std::string ReadAll() {
    std::string data = std::move(buffer_);
    buffer_.clear();
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return data;
      data.append(chunk, static_cast<std::size_t>(n));
    }
  }
  /// Exactly `want` bytes, or fewer if EOF comes first.
  std::string ReadExact(std::size_t want) {
    while (buffer_.size() < want) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string out = buffer_.substr(0, want);
    buffer_.erase(0, out.size());
    return out;
  }
  /// Next full line (without newline); "" on EOF.
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

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// TCP fixture: one default model behind the real front end on an
/// ephemeral port.
class TcpChaos {
 public:
  TcpChaos(const GconArtifact& artifact, const Graph& graph,
           ServeOptions options)
      : server_(InferenceSession(artifact, graph), options) {
    listener_ = std::thread(
        [this] { RunTcpServer(&server_, /*port=*/0, &shutdown_, &port_); });
    while (port_.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~TcpChaos() { Shutdown(); }
  int port() const { return port_.load(std::memory_order_acquire); }
  InferenceServer& server() { return server_; }

  /// Flips the shutdown flag and returns how long RunTcpServer then took
  /// to return (zero when it already has).
  std::chrono::steady_clock::duration Shutdown() {
    if (!listener_.joinable()) return {};
    const auto start = std::chrono::steady_clock::now();
    shutdown_.store(true, std::memory_order_release);
    listener_.join();
    return std::chrono::steady_clock::now() - start;
  }

 private:
  InferenceServer server_;
  std::thread listener_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> port_{0};
};

enum class Transport { kJson, kBinary };

/// The transport's opening: nothing for JSON, the hello exchange for
/// binary frames.
void Open(RawClient* client, Transport transport) {
  ASSERT_TRUE(client->connected());
  if (transport == Transport::kBinary) {
    client->Send(EncodeHello(kFrameVersion));
    ASSERT_EQ(client->ReadExact(kFrameHelloBytes), EncodeHello(kFrameVersion));
  }
}

/// One node query in the transport's encoding.
std::string QueryBytes(Transport transport, std::int64_t id, int node) {
  if (transport == Transport::kJson) {
    return "{\"id\": " + std::to_string(id) +
           ", \"node\": " + std::to_string(node) + "}\n";
  }
  ServeRequest request;
  request.id = id;
  request.node = node;
  return EncodeRequestFrame(request);
}

/// The exact bytes the server answers that query with: the offline row.
std::string AnswerBytes(Transport transport, const Matrix& offline,
                        std::int64_t id, int node) {
  ServeResponse expected;
  expected.id = id;
  expected.node = node;
  const auto row = static_cast<std::size_t>(node);
  expected.label = static_cast<int>(RowArgMax(offline, row));
  expected.logits = offline.RowCopy(row);
  return transport == Transport::kJson ? FormatWireResponse(expected) + "\n"
                                       : EncodeResponseFrame(expected);
}

/// Connection-loop scenarios that must hold on both transports.
class ServeChaosTransportTest : public ServeChaosTest,
                                public ::testing::WithParamInterface<Transport> {
};

TEST_P(ServeChaosTransportTest, TornSocketMidResponseLeavesServerServing) {
  const Transport transport = GetParam();
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 59);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  TcpChaos tcp(artifact, graph, options);

  {
    RawClient victim(tcp.port());
    Open(&victim, transport);
    // Armed after the opening, so the tear hits the response.
    FaultInjector::Global().Arm(Fault::kTornSocket, 1);
    victim.Send(QueryBytes(transport, 1, 4));
    // The injected tear delivers half the response, then kills the
    // connection: the client sees a strict prefix of the real answer, then
    // EOF — and the server side must shrug, not crash or wedge.
    const std::string full = AnswerBytes(transport, offline, 1, 4);
    const std::string torn = victim.ReadAll();
    EXPECT_LT(torn.size(), full.size());
    EXPECT_EQ(full.compare(0, torn.size(), torn), 0)
        << "torn bytes are not a prefix of the real response";
    if (transport == Transport::kJson) {
      EXPECT_EQ(torn.find('\n'), std::string::npos) << torn;
    }
  }
  // A fresh connection gets clean, bitwise-offline service.
  RawClient survivor(tcp.port());
  Open(&survivor, transport);
  survivor.Send(QueryBytes(transport, 2, 4));
  const std::string expected = AnswerBytes(transport, offline, 2, 4);
  EXPECT_EQ(survivor.ReadExact(expected.size()), expected);
}

TEST_P(ServeChaosTransportTest, HalfClosedClientGetsEveryAnswerThenEof) {
  // A client that pipelines a burst and then shuts its write side still
  // gets every answer, in order: EOF ends reading, never answering.
  const Transport transport = GetParam();
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 67);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  options.max_batch = 4;
  TcpChaos tcp(artifact, graph, options);

  RawClient client(tcp.port());
  Open(&client, transport);
  std::string burst;
  std::string expected;
  for (int q = 0; q < 8; ++q) {
    burst += QueryBytes(transport, 100 + q, q);
    expected += AnswerBytes(transport, offline, 100 + q, q);
  }
  client.Send(burst);
  client.ShutdownWrite();
  EXPECT_EQ(client.ReadAll(), expected);  // all eight, in order, then EOF
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ServeChaosTransportTest,
    ::testing::Values(Transport::kJson, Transport::kBinary),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return info.param == Transport::kJson ? "json" : "binary";
    });

TEST_F(ServeChaosTest, ShutdownClosesIdleConnectionsAndAnswersInFlight) {
  // Shutdown must not wait out io_timeout_ms (30 s by default) on clients
  // that are connected but silent: RunTcpServer stops reading every
  // connection at once, and still answers a query it already accepted.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 71);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  TcpChaos tcp(artifact, graph, options);

  RawClient idle_json(tcp.port());
  Open(&idle_json, Transport::kJson);
  idle_json.Send(QueryBytes(Transport::kJson, 1, 3));
  const std::string json_answer = AnswerBytes(Transport::kJson, offline, 1, 3);
  ASSERT_EQ(idle_json.ReadExact(json_answer.size()), json_answer);
  RawClient idle_binary(tcp.port());
  Open(&idle_binary, Transport::kBinary);

  // The third client's query is accepted, then held inside its batch until
  // the shutdown pass has run.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  FaultInjector::Global().SetCallback(Fault::kSwapDuringBatch, [&] {
    entered.set_value();
    released.wait();
  });
  FaultInjector::Global().Arm(Fault::kSwapDuringBatch, 1);
  RawClient busy(tcp.port());
  Open(&busy, Transport::kJson);
  busy.Send(QueryBytes(Transport::kJson, 2, 5));
  ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  std::thread releaser([&] {
    // Past the accept loop's 200 ms shutdown poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    release.set_value();
  });
  const auto took_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           tcp.Shutdown())
                           .count();
  releaser.join();
  EXPECT_LT(took_ms, 2000) << "RunTcpServer waited on idle connections";
  EXPECT_EQ(busy.ReadAll(), AnswerBytes(Transport::kJson, offline, 2, 5));
  EXPECT_EQ(idle_json.ReadAll(), "");
  EXPECT_EQ(idle_binary.ReadAll(), "");
}

// --- Drain lifecycle -------------------------------------------------------

TEST_F(ServeChaosTest, DrainFlushesAcceptedWorkAndRejectsNewWithCode) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 61);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;
  options.max_batch = 8;
  InferenceServer server(InferenceSession(artifact, graph), options);

  std::vector<ServeFuture> accepted;
  for (int q = 0; q < 24; ++q) {
    ServeRequest request;
    request.id = q;
    request.node = q % graph.num_nodes();
    accepted.push_back(server.QueryAsync(request));
  }
  server.BeginDrain();
  ServeRequest late;
  late.node = 0;
  try {
    server.Query(late);
    FAIL() << "expected ServeError(kDraining)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kDraining);
  }
  server.Drain();  // idempotent over BeginDrain; runs what is queued
  for (int q = 0; q < 24; ++q) {
    const ServeResponse response =
        accepted[static_cast<std::size_t>(q)].get();
    EXPECT_TRUE(BitwiseEqualRow(
        offline, static_cast<std::size_t>(q % graph.num_nodes()),
        response.logits))
        << "query " << q << " dropped or corrupted by drain";
  }
  EXPECT_EQ(server.queries_served(), 24u);
}

TEST_F(ServeChaosTest, StopRacingSubmitResolvesEveryFuture) {
  // The shutdown race TSan must see: submitters hammer Submit while the
  // batcher Stops underneath them. Every outcome is binary — a submission
  // either throws ServeError(kDraining) at the call site or returns a
  // future that Stop has RESOLVED by the time it returns, awaited or not.
  for (int round = 0; round < 8; ++round) {
    ServeOptions options;
    options.max_batch = 4;
    auto batcher = std::make_unique<MicroBatcher>(
        options, [](std::vector<PendingQuery*>& batch) {
          for (PendingQuery* p : batch) {
            p->response.label = p->request.node;
          }
        });
    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 50;
    std::mutex futures_mu;
    std::vector<std::pair<int, ServeFuture>> futures;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ServeRequest request;
          request.node = t * kPerThread + i;
          try {
            ServeFuture f = batcher->Submit(request);
            std::lock_guard<std::mutex> lock(futures_mu);
            futures.emplace_back(request.node, std::move(f));
          } catch (const ServeError&) {
            // Rejected at the door: fine, as long as it's structured.
          }
        }
      });
    }
    // Stop lands at a different point in the submission storm each round
    // (the yield count staggers it without wall-clock sleeps).
    for (int spin = 0; spin < round * 16; ++spin) {
      std::this_thread::yield();
    }
    batcher->Stop();
    for (auto& t : submitters) t.join();
    // Stop ran every accepted query (no deadlines, so each one counts as
    // served), so get() below only reads its answer.
    ASSERT_EQ(batcher->queries_served(), futures.size())
        << "round " << round << ": Stop left a submitted query unresolved";
    for (auto& [node, future] : futures) {
      EXPECT_EQ(future.get().label, node);
    }
  }
}

TEST_F(ServeChaosTest, DestroyingServerWaitsOutThreadsBlockedInGet) {
  // Waiters blocked in get() while another waiter runs their batch slowly:
  // destroying the server must wait until every one of them has left the
  // batcher (each relocks its mutex on the way out). Under ASan or TSan a
  // destructor that returned as soon as the batch finished is a
  // use-after-free report.
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 47);
  const Matrix offline = artifact.Infer(graph);
  ServeOptions options;  // max_batch 32: one batch holds every query below
  auto server = std::make_unique<InferenceServer>(
      InferenceSession(artifact, graph), options);
  constexpr int kWaiters = 4;
  std::vector<ServeFuture> futures;
  for (int v = 0; v < kWaiters; ++v) {
    ServeRequest request;
    request.id = v;
    request.node = v;
    futures.push_back(server->QueryAsync(request));
  }
  FaultInjector::Global().set_slow_handler_us(200000);
  FaultInjector::Global().Arm(Fault::kSlowHandler, 1);
  std::atomic<int> started{0};
  std::vector<std::vector<double>> logits(kWaiters);
  std::vector<std::thread> waiters;
  for (int v = 0; v < kWaiters; ++v) {
    waiters.emplace_back([&, v] {
      started.fetch_add(1);
      logits[static_cast<std::size_t>(v)] =
          futures[static_cast<std::size_t>(v)].get().logits;
    });
  }
  while (started.load() < kWaiters) std::this_thread::yield();
  // The first waiter in took the batch and sleeps in it; let the others
  // block behind it before the server goes away underneath them.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.reset();
  for (auto& t : waiters) t.join();
  for (int v = 0; v < kWaiters; ++v) {
    EXPECT_TRUE(BitwiseEqualRow(offline, static_cast<std::size_t>(v),
                                logits[static_cast<std::size_t>(v)]))
        << "node " << v;
  }
}

// --- Whole-process spec arming (the GCON_FAULTS path) ----------------------

TEST_F(ServeChaosTest, SpecArmedFaultBehavesLikeProgrammaticArm) {
  const Graph graph = TestGraph();
  const GconArtifact artifact = SyntheticArtifact(graph, {2}, 8, 67);
  InferenceServer server(InferenceSession(artifact, graph), ServeOptions{});
  // Same parser the GCON_FAULTS env var uses at first Global() touch.
  ASSERT_TRUE(FaultInjector::Global().ArmFromSpec("queue_full:2"));
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    ServeRequest request;
    request.node = 0;
    try {
      server.Query(request);
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(FaultInjector::Global().fired(Fault::kQueueFull), 2u);
}

}  // namespace
}  // namespace gcon
