// Binary-transport conformance: golden length-prefixed frame transcripts
// (serve/frame.h) replayed against the real TCP front end and
// byte-compared, mirroring the newline-JSON suite
// (serve_conformance_test.cc) so neither transport can drift silently.
// Covers the hello handshake + version negotiation (including skew),
// node/routed/private-edge/inductive queries, the coded rejection frames
// (overloaded / deadline_exceeded / draining / malformed_frame), admin
// verbs (JSON-bodied replies — JSON stays the debug surface), hostile
// frames (truncated, size-mismatched, oversized, unknown type), and the
// mixed-transport contract: one server, concurrent JSON and binary
// connections, responses derived from the same offline bits per query.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "graph/datasets.h"
#include "linalg/ops.h"
#include "serve_test_util.h"
#include "serve/fault_injection.h"
#include "serve/frame.h"
#include "serve/inference_session.h"
#include "serve/serve_error.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace gcon {
namespace {

using serve_test::AugmentGraph;
using serve_test::SyntheticArtifact;

/// Blocking frame-oriented client over a raw socket — the binary
/// counterpart of the JSON suite's WireClient.
class FrameClient {
 public:
  explicit FrameClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0) << "socket: " << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << "connect: " << std::strerror(errno);
  }
  ~FrameClient() {
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

  /// Performs the hello handshake and returns the server's 8 ack bytes
  /// ("" on EOF before a full ack).
  std::string Hello(std::uint16_t version = kFrameVersion) {
    Send(EncodeHello(version));
    return ReadExact(kFrameHelloBytes);
  }

  /// Reads one complete frame; false on EOF.
  bool ReadFrame(FrameType* type, std::string* payload) {
    const std::string header = ReadExact(kFrameHeaderBytes);
    if (header.size() != kFrameHeaderBytes) return false;
    std::uint32_t len = 0;
    std::string error;
    if (!ParseFrameHeader(header.data(), type, &len, &error)) {
      ADD_FAILURE() << "server sent a bad frame header: " << error;
      return false;
    }
    *payload = ReadExact(len);
    return payload->size() == len;
  }

  /// The whole next frame (header + payload) as raw bytes, for goldens.
  std::string ReadFrameBytes() {
    const std::string header = ReadExact(kFrameHeaderBytes);
    if (header.size() != kFrameHeaderBytes) return header;
    std::uint32_t len = 0;
    len = static_cast<std::uint32_t>(
        static_cast<unsigned char>(header[0]) |
        (static_cast<unsigned char>(header[1]) << 8) |
        (static_cast<unsigned char>(header[2]) << 16) |
        (static_cast<unsigned char>(header[3]) << 24));
    return header + ReadExact(len);
  }

  bool AtEof() {
    if (!buffer_.empty()) return false;
    char byte;
    return ::recv(fd_, &byte, 1, 0) <= 0;
  }

 private:
  std::string ReadExact(std::size_t want) {
    while (buffer_.size() < want) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        const std::string partial = buffer_;
        buffer_.clear();
        return partial;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string out = buffer_.substr(0, want);
    buffer_.erase(0, want);
    return out;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// Minimal newline-JSON client for the mixed-transport test (the full
/// golden battery for the JSON transport lives in
/// serve_conformance_test.cc; this one only needs send-line/read-line).
class JsonLineClient {
 public:
  explicit JsonLineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~JsonLineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendLine(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

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
  std::string buffer_;
};

/// The exact response frame for a query answered by row `row` of `logits`.
std::string GoldenResponseFrame(std::int64_t id, int node,
                                const Matrix& logits, std::size_t row) {
  ServeResponse response;
  response.id = id;
  response.node = node;
  response.label = static_cast<int>(RowArgMax(logits, row));
  response.logits = logits.RowCopy(row);
  return EncodeResponseFrame(response);
}

/// Server fixture: two synthetic models ("default", "alt") over the tiny
/// graph behind the real TCP front end on an ephemeral port — identical to
/// the JSON conformance fixture so goldens are comparable across suites.
class ServeFrameConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = serve_test::TestGraph(9);
    default_artifact_ = SyntheticArtifact(graph_, {0, 2}, 8, 3);
    alt_artifact_ = SyntheticArtifact(graph_, {2}, 8, 101);
    offline_default_ = default_artifact_->Infer(graph_);
    offline_alt_ = alt_artifact_->Infer(graph_);

    std::vector<ModelRouter::NamedModel> models;
    models.push_back(
        {"default", InferenceSession(*default_artifact_, graph_)});
    models.push_back({"alt", InferenceSession(*alt_artifact_, graph_)});
    ServeOptions options;
    options.max_batch = 8;
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

  /// An inductive query whose feature values are exactly representable in
  /// f32 (the binary transport's payload type): graph row `src` rounded
  /// through float, then widened — both transports and the offline side
  /// operate on these exact doubles.
  std::vector<double> WidenedFeatures(int src) const {
    std::vector<double> out(
        static_cast<std::size_t>(graph_.feature_dim()));
    const double* row =
        graph_.features().RowPtr(static_cast<std::size_t>(src));
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = static_cast<double>(static_cast<float>(row[j] * 1.375));
    }
    return out;
  }

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

// --- Codec format locks (pure, no server) ----------------------------------

TEST(FrameFormatLock, HelloBytesAreByteStable) {
  const std::string hello = EncodeHello(1);
  ASSERT_EQ(hello.size(), kFrameHelloBytes);
  const unsigned char expected[8] = {0xC0, 'G', 'C', 'O', 'N', 'B', 1, 0};
  EXPECT_EQ(std::memcmp(hello.data(), expected, 8), 0);
}

TEST(FrameFormatLock, ErrorCodeEncodingsAreWireStable) {
  // These integers are the binary wire contract — renumbering the enum
  // must not renumber the wire.
  EXPECT_EQ(WireErrorCode(ServeErrorCode::kOverloaded), 1u);
  EXPECT_EQ(WireErrorCode(ServeErrorCode::kDeadlineExceeded), 2u);
  EXPECT_EQ(WireErrorCode(ServeErrorCode::kDraining), 3u);
  EXPECT_EQ(WireErrorCode(ServeErrorCode::kMalformedFrame), 4u);
  EXPECT_EQ(WireErrorCode(ServeErrorCode::kBudgetExhausted), 5u);
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kMalformedFrame),
               "malformed_frame");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kBudgetExhausted),
               "budget_exhausted");
}

TEST(FrameFormatLock, ResponseFrameIsByteStable) {
  ServeResponse response;
  response.id = 7;
  response.node = 3;
  response.label = 2;
  response.logits = {0.5, -2.0};
  const std::string frame = EncodeResponseFrame(response);
  // Header: 40-byte payload, type 0x11; payload: id, node, label,
  // num_logits, reserved, then the two f64 bit patterns (0.5 = 0x3FE0...,
  // -2.0 = 0xC000...).
  const unsigned char expected[] = {
      40, 0, 0, 0, 0x11,                                  // header
      7, 0, 0, 0, 0, 0, 0, 0,                             // id
      3, 0, 0, 0,                                         // node
      2, 0, 0, 0,                                         // label
      2, 0, 0, 0,                                         // num_logits
      0, 0, 0, 0,                                         // reserved
      0, 0, 0, 0, 0, 0, 0xE0, 0x3F,                       // 0.5
      0, 0, 0, 0, 0, 0, 0x00, 0xC0,                       // -2.0
  };
  ASSERT_EQ(frame.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(frame.data(), expected, sizeof(expected)), 0);
}

TEST(FrameFormatLock, RequestFrameRoundTrips) {
  ServeRequest request;
  request.id = 42;
  request.deadline_us = 1000;
  request.model = "alt";
  request.has_edges = true;
  request.edges = {1, 5, -3};
  request.has_features = true;
  request.features = {0.25, -1.5};
  const std::string frame = EncodeRequestFrame(request);
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  // Parse from a 4-aligned payload buffer, as the server's pooled recv
  // path guarantees — the zero-copy feature view is only dereferenceable
  // under that contract (frame.data() + 5 would misalign the floats).
  const std::size_t payload_len = frame.size() - kFrameHeaderBytes;
  std::vector<std::uint32_t> aligned(payload_len / 4 + 1, 0);
  std::memcpy(aligned.data(), frame.data() + kFrameHeaderBytes, payload_len);
  const char* payload_bytes = reinterpret_cast<const char*>(aligned.data());
  ServeRequest decoded;
  std::string error;
  ASSERT_TRUE(ParseRequestPayload(payload_bytes, payload_len, &decoded, &error))
      << error;
  EXPECT_EQ(decoded.id, 42);
  EXPECT_EQ(decoded.deadline_us, 1000);
  EXPECT_EQ(decoded.model, "alt");
  EXPECT_EQ(decoded.node, -1);
  EXPECT_TRUE(decoded.has_edges);
  EXPECT_EQ(decoded.edges, (std::vector<int>{1, 5, -3}));
  ASSERT_TRUE(decoded.has_features);
  // Zero-copy: the decoded request views the frame bytes, owns nothing.
  ASSERT_NE(decoded.feature_view.data, nullptr);
  EXPECT_TRUE(decoded.features.empty());
  ASSERT_EQ(decoded.feature_count(), 2u);
  EXPECT_EQ(decoded.feature_view.data[0], 0.25f);
  EXPECT_EQ(decoded.feature_view.data[1], -1.5f);
}

TEST(FrameFormatLock, MalformedPayloadsRejectWithIdRecovery) {
  ServeRequest request;
  request.id = 99;
  request.node = 4;
  const std::string frame = EncodeRequestFrame(request);
  const char* payload = frame.data() + kFrameHeaderBytes;
  const std::size_t len = frame.size() - kFrameHeaderBytes;

  // Truncation below the fixed header still recovers the id (offset 0..7).
  ServeRequest decoded;
  std::string error;
  EXPECT_FALSE(ParseRequestPayload(payload, len - 1, &decoded, &error));
  EXPECT_EQ(decoded.id, 99);
  EXPECT_FALSE(error.empty());

  // Declared dims must consume the payload exactly.
  std::string padded(payload, len);
  padded += '\0';
  EXPECT_FALSE(
      ParseRequestPayload(padded.data(), padded.size(), &decoded, &error));
  EXPECT_EQ(decoded.id, 99);

  // A count that would wrap 32-bit size arithmetic is caught, not
  // overflowed: node = -1, has_features flag, feature_dim = 0xFFFFFFFF.
  std::string hostile(payload, len);
  for (int b = 16; b < 20; ++b) hostile[b] = static_cast<char>(0xFF);
  hostile[20] = 0x02;
  for (int b = 28; b < 32; ++b) hostile[b] = static_cast<char>(0xFF);
  EXPECT_FALSE(
      ParseRequestPayload(hostile.data(), hostile.size(), &decoded, &error));
  EXPECT_FALSE(error.empty());
}

// --- Handshake + negotiation ----------------------------------------------

TEST_F(ServeFrameConformanceTest, HelloAckIsByteStableAndServes) {
  FrameClient client(port());
  EXPECT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  ServeRequest request;
  request.id = 1;
  request.node = 0;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(1, 0, offline_default_, 0));
}

TEST_F(ServeFrameConformanceTest, NewerClientNegotiatesDownAndServes) {
  FrameClient client(port());
  // A version-7 client gets our version back (min of the two) and the
  // connection serves normally — version skew negotiates, never wedges.
  EXPECT_EQ(client.Hello(7), EncodeHello(kFrameVersion));
  ServeRequest request;
  request.id = 2;
  request.node = 5;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(2, 5, offline_default_, 5));
}

TEST_F(ServeFrameConformanceTest, VersionZeroHelloIsRejectedCoded) {
  FrameClient client(port());
  client.Send(EncodeHello(0));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(ParseErrorPayload(payload.data(), payload.size(), &frame_error,
                                &error))
      << error;
  EXPECT_EQ(frame_error.code, WireErrorCode(ServeErrorCode::kMalformedFrame));
  EXPECT_NE(frame_error.message.find("version"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServeFrameConformanceTest, BadMagicIsRejectedCoded) {
  FrameClient client(port());
  std::string hello = EncodeHello(1);
  hello[3] = 'X';  // preamble byte intact, magic corrupted
  client.Send(hello);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(ParseErrorPayload(payload.data(), payload.size(), &frame_error,
                                &error));
  EXPECT_EQ(frame_error.code, WireErrorCode(ServeErrorCode::kMalformedFrame));
  EXPECT_TRUE(client.AtEof());
}

// --- Golden query transcripts ----------------------------------------------

TEST_F(ServeFrameConformanceTest, RoutedAndPrivateEdgeQueriesMatchGoldens) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));

  ServeRequest routed;
  routed.id = 10;
  routed.model = "alt";
  routed.node = 12;
  client.Send(EncodeRequestFrame(routed));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(10, 12, offline_alt_, 12));

  // A private edge list replaces the graph adjacency for this query; the
  // served bits equal QueryLogits on the same request (locked bitwise to
  // the rebuilt-transition path by serve_test.cc).
  ServeRequest edges;
  edges.id = 11;
  edges.node = 3;
  edges.has_edges = true;
  edges.edges = {1, 5, 9};
  const std::vector<double> expected =
      InferenceSession(*default_artifact_, graph_).QueryLogits(edges);
  ServeResponse golden;
  golden.id = 11;
  golden.node = 3;
  golden.label = 0;
  for (std::size_t j = 1; j < expected.size(); ++j) {
    if (expected[j] > expected[static_cast<std::size_t>(golden.label)]) {
      golden.label = static_cast<int>(j);
    }
  }
  golden.logits = expected;
  client.Send(EncodeRequestFrame(edges));
  EXPECT_EQ(client.ReadFrameBytes(), EncodeResponseFrame(golden));
}

TEST_F(ServeFrameConformanceTest, InductiveQueryMatchesOfflineAugmentedBits) {
  // The binary transport's inductive contract end to end: f32 features on
  // the wire, zero-copy view into the frame buffer, widened into the
  // gathered GEMM panel — and the answer is memcmp-identical to offline
  // Infer on the graph augmented with the (widened) query node.
  const std::vector<double> features = WidenedFeatures(4);
  const std::vector<int> edges = {0, 7, 11};
  const Graph augmented = AugmentGraph(graph_, features, edges);
  const Matrix offline = default_artifact_->Infer(augmented);
  const std::size_t virtual_row = static_cast<std::size_t>(graph_.num_nodes());

  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  ServeRequest request;
  request.id = 20;
  request.has_features = true;
  request.features = features;  // encoder narrows to f32 on the wire; exact
  request.has_edges = true;
  request.edges = edges;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(20, -1, offline, virtual_row));
}

TEST_F(ServeFrameConformanceTest, PipelinedBurstAnswersInOrder) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  // A burst of frames sent before any read: the connection loop pipelines
  // them through the batcher and answers strictly in request order.
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    ServeRequest request;
    request.id = 100 + i;
    request.node = i;
    burst += EncodeRequestFrame(request);
  }
  client.Send(burst);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.ReadFrameBytes(),
              GoldenResponseFrame(100 + i, i, offline_default_,
                                  static_cast<std::size_t>(i)));
  }
}

TEST_F(ServeFrameConformanceTest, PipelinedBurstRunsAsOneBatch) {
  // A burst of max_batch frames in one write: the connection thread
  // queues all of them before it awaits the first answer, then runs the
  // whole burst as one batch itself.
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  const std::uint64_t batches_before = server_->batches_run();
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    ServeRequest request;
    request.id = 200 + i;
    request.node = 8 - i;
    burst += EncodeRequestFrame(request);
  }
  client.Send(burst);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client.ReadFrameBytes(),
              GoldenResponseFrame(200 + i, 8 - i, offline_default_,
                                  static_cast<std::size_t>(8 - i)));
  }
  EXPECT_EQ(server_->batches_run() - batches_before, 1u);
}

TEST_F(ServeFrameConformanceTest, BurstPastMaxQueueIsAnsweredNotShed) {
  // One client writes a burst eight times its model's max_queue before it
  // reads anything. The connection thread awaits its queries every
  // max_queue of them, so the burst never fills the queue by itself:
  // nothing is shed, every answer is the offline row, and the burst runs
  // as one full batch per max_queue queries.
  ServeOptions options;
  options.max_batch = 32;
  options.max_queue = 8;
  InferenceServer server(InferenceSession(*default_artifact_, graph_),
                         options);
  std::atomic<bool> shutdown{false};
  std::atomic<int> bound_port{0};
  std::thread listener(
      [&] { RunTcpServer(&server, /*port=*/0, &shutdown, &bound_port); });
  while (bound_port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    FrameClient client(bound_port.load(std::memory_order_acquire));
    EXPECT_EQ(client.Hello(), EncodeHello(kFrameVersion));
    std::string burst;
    for (int i = 0; i < 64; ++i) {
      ServeRequest request;
      request.id = 300 + i;
      request.node = i % graph_.num_nodes();
      burst += EncodeRequestFrame(request);
    }
    client.Send(burst);
    for (int i = 0; i < 64; ++i) {
      const int node = i % graph_.num_nodes();
      EXPECT_EQ(client.ReadFrameBytes(),
                GoldenResponseFrame(300 + i, node, offline_default_,
                                    static_cast<std::size_t>(node)))
          << "query " << i;
    }
  }
  EXPECT_EQ(server.batches_run(), 8u);
  shutdown.store(true, std::memory_order_release);
  listener.join();
}

// --- Coded rejections ------------------------------------------------------

TEST_F(ServeFrameConformanceTest, OverloadedRejectionIsCodedAndRetryServes) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  FaultInjector::Global().Arm(Fault::kQueueFull, 1);
  ServeRequest request;
  request.id = 50;
  request.node = 2;
  // The golden bytes: same id, code 1, and the exact message the JSON
  // transport sends for the same rejection.
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeErrorFrame(50, WireErrorCode(ServeErrorCode::kOverloaded),
                             "model queue full (max_queue=64); retry later"));
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(50, 2, offline_default_, 2));
}

TEST_F(ServeFrameConformanceTest, DeadlineExceededRejectionIsCoded) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  FaultInjector::Global().Arm(Fault::kSlowHandler, 1);
  ServeRequest request;
  request.id = 51;
  request.node = 3;
  request.deadline_us = 1;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(
      client.ReadFrameBytes(),
      EncodeErrorFrame(51, WireErrorCode(ServeErrorCode::kDeadlineExceeded),
                       "query deadline expired before execution"));
}

TEST_F(ServeFrameConformanceTest, DrainRepliesThenRejectsCoded) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  client.Send(EncodeAdminFrame(AdminVerb::kDrain));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeAdminReplyFrame("{\"draining\": true}"));
  ServeRequest request;
  request.id = 61;
  request.node = 1;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeErrorFrame(61, WireErrorCode(ServeErrorCode::kDraining),
                             "server draining; not accepting new queries"));
}

TEST_F(ServeFrameConformanceTest, UnknownModelIsUncodedErrorWithMessage) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  ServeRequest request;
  request.id = 55;
  request.model = "nope";
  request.node = 0;
  client.Send(EncodeRequestFrame(request));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(
      ParseErrorPayload(payload.data(), payload.size(), &frame_error, &error));
  EXPECT_EQ(frame_error.id, 55);
  EXPECT_EQ(frame_error.code, 0u);  // prose-only rejection, not a code
  EXPECT_NE(frame_error.message.find("unknown model"), std::string::npos);
}

// --- Hostile frames --------------------------------------------------------

TEST_F(ServeFrameConformanceTest,
       MalformedPayloadGetsCodedErrorAndConnectionSurvives) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  // A structurally intact frame whose payload lies about its dims: strip
  // the final byte of a valid request and re-wrap (declared model_len now
  // overruns). Framing is preserved, so the server answers a coded
  // malformed_frame error with the recovered id and KEEPS SERVING.
  ServeRequest request;
  request.id = 70;
  request.node = 1;
  request.model = "default";
  const std::string valid = EncodeRequestFrame(request);
  const std::string payload =
      valid.substr(kFrameHeaderBytes, valid.size() - kFrameHeaderBytes - 1);
  std::string frame;
  frame.push_back(static_cast<char>(payload.size() & 0xFF));
  frame.push_back(static_cast<char>((payload.size() >> 8) & 0xFF));
  frame.push_back(static_cast<char>((payload.size() >> 16) & 0xFF));
  frame.push_back(static_cast<char>((payload.size() >> 24) & 0xFF));
  frame.push_back(0x10);
  frame += payload;
  client.Send(frame);
  FrameType type;
  std::string reply;
  ASSERT_TRUE(client.ReadFrame(&type, &reply));
  ASSERT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(
      ParseErrorPayload(reply.data(), reply.size(), &frame_error, &error));
  EXPECT_EQ(frame_error.id, 70);  // structured id recovery from offset 0
  EXPECT_EQ(frame_error.code, WireErrorCode(ServeErrorCode::kMalformedFrame));
  // Same socket, next frame serves — the defect was payload-deep only.
  ServeRequest retry;
  retry.id = 71;
  retry.node = 1;
  client.Send(EncodeRequestFrame(retry));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(71, 1, offline_default_, 1));
}

TEST_F(ServeFrameConformanceTest, OversizedFrameIsRejectedAndDisconnected) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  // Declared length past kMaxFrameBytes: framing is unrecoverable (the
  // server will not stream 4 GiB to resync), so: coded error, hang up.
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFrameBytes) + 1;
  std::string header;
  header.push_back(static_cast<char>(huge & 0xFF));
  header.push_back(static_cast<char>((huge >> 8) & 0xFF));
  header.push_back(static_cast<char>((huge >> 16) & 0xFF));
  header.push_back(static_cast<char>((huge >> 24) & 0xFF));
  header.push_back(0x10);
  client.Send(header);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(
      ParseErrorPayload(payload.data(), payload.size(), &frame_error, &error));
  EXPECT_EQ(frame_error.code, WireErrorCode(ServeErrorCode::kMalformedFrame));
  EXPECT_NE(frame_error.message.find("oversized"), std::string::npos);
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServeFrameConformanceTest, UnknownFrameTypeIsRejectedAndDisconnected) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  const char header[5] = {0, 0, 0, 0, static_cast<char>(0x7F)};
  client.Send(std::string(header, sizeof(header)));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  ASSERT_EQ(type, FrameType::kError);
  FrameError frame_error;
  std::string error;
  ASSERT_TRUE(
      ParseErrorPayload(payload.data(), payload.size(), &frame_error, &error));
  EXPECT_EQ(frame_error.code, WireErrorCode(ServeErrorCode::kMalformedFrame));
  EXPECT_TRUE(client.AtEof());
}

// --- Admin verbs (JSON-bodied replies) -------------------------------------

TEST_F(ServeFrameConformanceTest, AdminVerbsAnswerTheJsonDocuments) {
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  // list_models: the reply body IS the JSON transport's document — admin
  // stays JSON over either transport (the debug surface).
  client.Send(EncodeAdminFrame(AdminVerb::kListModels));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeAdminReplyFrame(server_->ListModelsJson()));

  ServeRequest request;
  request.id = 80;
  request.node = 6;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(80, 6, offline_default_, 6));

  client.Send(EncodeAdminFrame(AdminVerb::kStats));
  FrameType type;
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kAdminReply);
  EXPECT_EQ(payload, server_->StatsJson());
  EXPECT_NE(payload.find("\"queries\": "), std::string::npos);

  client.Send(EncodeAdminFrame(AdminVerb::kQuit));
  EXPECT_TRUE(client.AtEof());
}

TEST_F(ServeFrameConformanceTest, PublishHotSwapsOverBinaryTransport) {
  const GconArtifact next = SyntheticArtifact(graph_, {0, 2}, 8, 202);
  const Matrix offline_next = next.Infer(graph_);
  const std::string path = "/tmp/gcon_frame_conformance_publish.model";
  SaveModel(next, path);

  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  ServeRequest before;
  before.id = 90;
  before.model = "alt";
  before.node = 12;
  client.Send(EncodeRequestFrame(before));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(90, 12, offline_alt_, 12));

  // Construction charged alt's artifact epsilon (1.0); this publish
  // charges another 1.0 — the reply carries both the release's own epsilon
  // and the model's cumulative total, same bytes as the JSON transport.
  std::ostringstream published;
  published << "{\"published\": \"alt\", \"nodes\": " << graph_.num_nodes()
            << ", \"classes\": " << graph_.num_classes()
            << ", \"features\": " << graph_.feature_dim()
            << ", \"per_query\": true, \"epsilon\": 1, "
            << "\"epsilon_total\": 2}";
  client.Send(EncodeAdminFrame(AdminVerb::kPublish, "alt", path));
  EXPECT_EQ(client.ReadFrameBytes(), EncodeAdminReplyFrame(published.str()));

  ServeRequest after = before;
  after.id = 91;
  client.Send(EncodeRequestFrame(after));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(91, 12, offline_next, 12));

  // The budget admin verb answers the same JSON document on this transport:
  // alt's row shows the accumulated spend, default's is untouched.
  client.Send(EncodeAdminFrame(AdminVerb::kBudget));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeAdminReplyFrame(
                "{\"budget\": [{\"model\": \"default\", \"epsilon\": 1, "
                "\"delta\": 1.0000000000000001e-05, \"publishes\": 1, "
                "\"cap\": 0}, {\"model\": \"alt\", \"epsilon\": 2, "
                "\"delta\": 2.0000000000000002e-05, \"publishes\": 2, "
                "\"cap\": 0}], \"ledger\": \"\", \"persistent\": false}"));
  std::remove(path.c_str());
}

TEST_F(ServeFrameConformanceTest, OverCapPublishRefusedCodedOverBinary) {
  // A second publish of the same 1.0-epsilon artifact onto a server whose
  // cap is spent must cross the binary transport as the structured code 5
  // frame — and leave the old bits serving. The fixture's server has no
  // cap, so this test runs its own capped one.
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"only", InferenceSession(*default_artifact_, graph_)});
  ServeOptions options;
  options.max_batch = 4;
  options.budget_cap = 1.5;  // construction spends 1.0 of it
  InferenceServer server(std::move(models), options);
  std::atomic<bool> stop{false};
  std::atomic<int> capped_port{0};
  std::thread listener(
      [&] { RunTcpServer(&server, /*port=*/0, &stop, &capped_port); });
  while (capped_port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const GconArtifact next = SyntheticArtifact(graph_, {2}, 8, 404);
  const std::string path = "/tmp/gcon_frame_conformance_overcap.model";
  SaveModel(next, path);

  FrameClient client(capped_port.load(std::memory_order_acquire));
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  client.Send(EncodeAdminFrame(AdminVerb::kPublish, "only", path));
  EXPECT_EQ(client.ReadFrameBytes(),
            EncodeErrorFrame(
                0, WireErrorCode(ServeErrorCode::kBudgetExhausted),
                "release of model 'only' refused: cumulative epsilon 1 + 1 "
                "exceeds budget cap 1.5"));
  // The refusal spent nothing and the old artifact still serves bitwise.
  ServeRequest request;
  request.id = 95;
  request.node = 12;
  client.Send(EncodeRequestFrame(request));
  EXPECT_EQ(client.ReadFrameBytes(),
            GoldenResponseFrame(95, 12, offline_default_, 12));

  stop.store(true, std::memory_order_release);
  listener.join();
  std::remove(path.c_str());
}

// --- Mixed transports: one server, both codecs, identical bits -------------

TEST_F(ServeFrameConformanceTest, ConcurrentJsonAndBinaryClientsMatchBits) {
  // The acceptance criterion, end to end: for every query, the JSON line
  // and the binary frame are both byte-identical to goldens derived from
  // the SAME offline doubles — so the transports agree with each other and
  // with offline predict, bit for bit, under concurrency (and under the
  // sanitizer matrix, which runs this suite).
  const std::vector<double> features = WidenedFeatures(2);
  const std::vector<int> edges = {3, 8};
  const Graph augmented = AugmentGraph(graph_, features, edges);
  const Matrix offline_inductive = default_artifact_->Infer(augmented);
  const std::size_t virtual_row =
      static_cast<std::size_t>(graph_.num_nodes());

  constexpr int kRounds = 40;
  std::thread binary_thread([&] {
    FrameClient client(port());
    ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
    for (int i = 0; i < kRounds; ++i) {
      const int node = i % graph_.num_nodes();
      ServeRequest request;
      request.id = 1000 + i;
      request.node = node;
      client.Send(EncodeRequestFrame(request));
      EXPECT_EQ(client.ReadFrameBytes(),
                GoldenResponseFrame(1000 + i, node, offline_default_,
                                    static_cast<std::size_t>(node)));
      ServeRequest inductive;
      inductive.id = 2000 + i;
      inductive.has_features = true;
      inductive.features = features;
      inductive.has_edges = true;
      inductive.edges = edges;
      client.Send(EncodeRequestFrame(inductive));
      EXPECT_EQ(
          client.ReadFrameBytes(),
          GoldenResponseFrame(2000 + i, -1, offline_inductive, virtual_row));
    }
  });

  // The JSON side of the same queries, on the same server, concurrently.
  // Feature values are f32-exact, so the 17-digit text round-trip carries
  // the very doubles the binary client's f32 payload widens to.
  std::ostringstream inductive_tail;
  inductive_tail.imbue(std::locale::classic());
  inductive_tail.precision(17);
  inductive_tail << ", \"features\": [";
  for (std::size_t j = 0; j < features.size(); ++j) {
    inductive_tail << (j == 0 ? "" : ", ") << features[j];
  }
  inductive_tail << "], \"edges\": [3, 8]}";
  const std::string inductive_body = inductive_tail.str();

  JsonLineClient json_client(port());
  for (int i = 0; i < kRounds; ++i) {
    const int node = i % graph_.num_nodes();
    std::ostringstream line;
    line << "{\"id\": " << 3000 + i << ", \"node\": " << node << "}";
    json_client.SendLine(line.str());
    ServeResponse golden;
    golden.id = 3000 + i;
    golden.node = node;
    golden.label = static_cast<int>(
        RowArgMax(offline_default_, static_cast<std::size_t>(node)));
    golden.logits = offline_default_.RowCopy(static_cast<std::size_t>(node));
    EXPECT_EQ(json_client.ReadLine(), FormatWireResponse(golden));

    std::ostringstream inductive;
    inductive << "{\"id\": " << 4000 + i << inductive_body;
    json_client.SendLine(inductive.str());
    ServeResponse inductive_golden;
    inductive_golden.id = 4000 + i;
    inductive_golden.node = -1;
    inductive_golden.label =
        static_cast<int>(RowArgMax(offline_inductive, virtual_row));
    inductive_golden.logits = offline_inductive.RowCopy(virtual_row);
    EXPECT_EQ(json_client.ReadLine(), FormatWireResponse(inductive_golden));
  }
  binary_thread.join();
}

}  // namespace
}  // namespace gcon
