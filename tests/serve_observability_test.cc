// End-to-end observability conformance: the `metrics` and `trace` admin
// verbs on BOTH transports against the real TCP front end, the DP-budget
// gauge's construction/publish semantics, build info in stats, and the
// "obs on == obs off" served-bits invariant. The byte-level exposition
// format itself is locked by tests/obs_metrics_test.cc; this suite locks
// the wire plumbing — same exposition, two framings, counters that count.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "graph/datasets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve_test_util.h"
#include "serve/fault_injection.h"
#include "serve/frame.h"
#include "serve/inference_session.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace gcon {
namespace {

using serve_test::SyntheticArtifact;

/// Blocking line-oriented client (the JSON transport), same idiom as
/// serve_conformance_test.cc's WireClient.
class WireClient {
 public:
  explicit WireClient(int port) {
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
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendLine(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
    bytes_sent_ += data.size();
  }

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
      bytes_received_ += static_cast<std::size_t>(n);
    }
  }

  /// Reads exposition lines up to and including the "# EOF" sentinel and
  /// returns the whole text (terminator included) — the same read loop an
  /// `echo metrics | nc` shell pipeline performs.
  std::string ReadExposition() {
    std::string text;
    for (;;) {
      const std::string line = ReadLine();
      if (line.empty() && text.empty()) return text;  // EOF before data
      text += line + "\n";
      if (line == "# EOF") return text;
    }
  }

  /// Sends `quit` and reads to EOF: the server closes only after counting
  /// every byte it moved on this connection.
  void Quit() {
    SendLine("{\"cmd\": \"quit\"}");
    EXPECT_EQ(ReadLine(), "");
  }
  std::size_t bytes_sent() const { return bytes_sent_; }
  std::size_t bytes_received() const { return bytes_received_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t bytes_sent_ = 0;
  std::size_t bytes_received_ = 0;
};

/// Blocking frame-oriented client (the binary transport), same idiom as
/// serve_frame_conformance_test.cc's FrameClient.
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
    bytes_sent_ += data.size();
  }

  std::string Hello(std::uint16_t version = kFrameVersion) {
    Send(EncodeHello(version));
    return ReadExact(kFrameHelloBytes);
  }

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

  /// Sends the quit verb and reads to EOF (see WireClient::Quit).
  void Quit() {
    Send(EncodeAdminFrame(AdminVerb::kQuit));
    EXPECT_EQ(ReadExact(1), "");
  }
  std::size_t bytes_sent() const { return bytes_sent_; }
  std::size_t bytes_received() const { return bytes_received_; }

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
      bytes_received_ += static_cast<std::size_t>(n);
    }
    const std::string out = buffer_.substr(0, want);
    buffer_.erase(0, want);
    return out;
  }

  int fd_ = -1;
  std::string buffer_;
  std::size_t bytes_sent_ = 0;
  std::size_t bytes_received_ = 0;
};

/// Arms the GLOBAL trace recorder for one test and guarantees it is
/// disarmed again on exit (the global default; later suites depend on it).
struct TraceArmGuard {
  explicit TraceArmGuard(std::uint32_t sample_every) {
    obs::TraceRecorder::Global().Configure(sample_every, /*slow_query_us=*/0);
  }
  ~TraceArmGuard() { obs::TraceRecorder::Global().Configure(0, 0); }
};

/// Value of one fully-spelled series ("name{labels}") in an exposition, or
/// -1 if absent. The trailing space disambiguates series prefixes.
double SeriesValue(const std::string& exposition, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  std::string padded = "\n" + exposition;
  const std::size_t pos = padded.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(padded.substr(pos + needle.size()));
}

/// One transport's connection and byte counters, read in-process so the
/// read itself moves no wire bytes.
struct TransportTally {
  double connections, bytes_in, bytes_out;
};

TransportTally ReadTally(InferenceServer* server, const std::string& name) {
  const std::string exposition = server->MetricsText();
  const std::string bytes = "gcon_serve_bytes_total{transport=\"" + name +
                            "\",direction=";
  return {SeriesValue(exposition, "gcon_serve_connections_total{transport=\"" +
                                      name + "\"}"),
          SeriesValue(exposition, bytes + "\"in\"}"),
          SeriesValue(exposition, bytes + "\"out\"}")};
}

/// The counters moved by exactly one connection and exactly the bytes its
/// client sent and received.
void ExpectTallyDelta(const TransportTally& before, const TransportTally& after,
                      std::size_t sent, std::size_t received) {
  EXPECT_DOUBLE_EQ(std::max(before.connections, 0.0) + 1.0, after.connections);
  EXPECT_DOUBLE_EQ(std::max(before.bytes_in, 0.0) + static_cast<double>(sent),
                   after.bytes_in);
  EXPECT_DOUBLE_EQ(
      std::max(before.bytes_out, 0.0) + static_cast<double>(received),
      after.bytes_out);
}

/// Same two-model fixture as the conformance suites: "default" and "alt"
/// synthetic artifacts over the tiny graph behind the real TCP front end.
class ServeObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = serve_test::TestGraph(9);
    default_artifact_ = SyntheticArtifact(graph_, {0, 2}, 8, 3);
    alt_artifact_ = SyntheticArtifact(graph_, {2}, 8, 101);

    std::vector<ModelRouter::NamedModel> models;
    models.push_back({"default", InferenceSession(*default_artifact_, graph_)});
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
    // Invariants later suites rely on: metrics armed, tracing disarmed.
    obs::SetMetricsEnabled(true);
    obs::TraceRecorder::Global().Configure(0, 0);
  }

  int port() const { return port_.load(std::memory_order_acquire); }

  Graph graph_;
  std::optional<GconArtifact> default_artifact_;
  std::optional<GconArtifact> alt_artifact_;
  std::unique_ptr<InferenceServer> server_;
  std::thread listener_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int> port_{0};
};

TEST_F(ServeObservabilityTest, JsonMetricsVerbCountsAcceptedQueries) {
  const TransportTally tally_before = ReadTally(server_.get(), "json");
  WireClient client(port());
  // The global registry is cumulative across the process, so assert on the
  // DELTA between two scrapes bracketing a known amount of traffic.
  client.SendLine("{\"cmd\": \"metrics\"}");
  const std::string before = client.ReadExposition();
  ASSERT_NE(before.find("# EOF\n"), std::string::npos);
  ASSERT_NE(before.find("# TYPE gcon_serve_accepted_total counter\n"),
            std::string::npos)
      << before;

  for (int q = 0; q < 3; ++q) {
    client.SendLine("{\"id\": " + std::to_string(q) +
                    ", \"node\": " + std::to_string(q) + "}");
    const std::string response = client.ReadLine();
    ASSERT_EQ(response.find("error"), std::string::npos) << response;
  }
  client.SendLine("{\"id\": 3, \"node\": 0, \"model\": \"alt\"}");
  ASSERT_EQ(client.ReadLine().find("error"), std::string::npos);

  // The bare-line spelling (`echo metrics | nc`) must answer too.
  client.SendLine("metrics");
  const std::string after = client.ReadExposition();
  const std::string series_default =
      "gcon_serve_accepted_total{model=\"default\"}";
  const std::string series_alt = "gcon_serve_accepted_total{model=\"alt\"}";
  EXPECT_DOUBLE_EQ(
      SeriesValue(after, series_default) - SeriesValue(before, series_default),
      3.0)
      << after;
  EXPECT_DOUBLE_EQ(
      SeriesValue(after, series_alt) - SeriesValue(before, series_alt), 1.0)
      << after;
  // The admission path also feeds the queue-depth gauge family.
  EXPECT_NE(after.find("gcon_serve_queue_peak{model=\"default\"}"),
            std::string::npos)
      << after;

  // The transport counters saw this one connection, byte for byte.
  client.Quit();
  ExpectTallyDelta(tally_before, ReadTally(server_.get(), "json"),
                   client.bytes_sent(), client.bytes_received());
}

/// One-model ("default") server over the tiny graph.
std::unique_ptr<InferenceServer> OneModelServer(const Graph& graph,
                                                const GconArtifact& artifact) {
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"default", InferenceSession(artifact, graph)});
  ServeOptions options;
  return std::make_unique<InferenceServer>(std::move(models), options);
}

TEST(ServeObservabilityAccepted, EachServerInAProcessCountsItsOwnQueries) {
  // gcon_serve_accepted_total is process-global, so each server in turn
  // must move it by exactly its own admissions. The second server also
  // scrapes once while the registry is disarmed, which must not change
  // what the next armed scrape reads.
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const std::string series = "gcon_serve_accepted_total{model=\"default\"}";
  for (const int queries : {3, 2}) {
    auto server = OneModelServer(graph, artifact);
    const double before =
        std::max(SeriesValue(server->MetricsText(), series), 0.0);
    for (int q = 0; q < queries; ++q) {
      ServeRequest request;
      request.id = q;
      request.node = q;
      EXPECT_EQ(server->Query(request).node, q);
    }
    if (queries == 2) {
      obs::SetMetricsEnabled(false);
      server->MetricsText();
      obs::SetMetricsEnabled(true);
    }
    EXPECT_DOUBLE_EQ(SeriesValue(server->MetricsText(), series) - before,
                     static_cast<double>(queries))
        << "server answering " << queries << " queries";
  }
}

TEST(ServeObservabilitySingleSource, RegistryCountsAdmissionsWithoutAScrape) {
  // The registry series is the counter itself, not a mirror a server
  // refreshes when it renders `metrics`: reading the global registry
  // directly must already show every admission.
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const std::string series = "gcon_serve_accepted_total{model=\"default\"}";
  const auto& registry = obs::MetricsRegistry::Global();
  auto server = OneModelServer(graph, artifact);
  const double before =
      std::max(SeriesValue(registry.PrometheusText(), series), 0.0);
  constexpr int kQueries = 5;
  for (int q = 0; q < kQueries; ++q) {
    ServeRequest request;
    request.id = q;
    request.node = q;
    EXPECT_EQ(server->Query(request).node, q);
  }
  EXPECT_DOUBLE_EQ(SeriesValue(registry.PrometheusText(), series) - before,
                   kQueries);
  EXPECT_EQ(server->queries_served(), static_cast<std::uint64_t>(kQueries));
}

TEST(ServeObservabilitySingleSource, ResetStatsKeepsPrometheusMonotonic) {
  // `stats` starts over at a reset; the Prometheus series it reads does
  // not go backwards.
  const Graph graph = serve_test::TestGraph(9);
  const GconArtifact artifact = SyntheticArtifact(graph, {0, 2}, 8, 3);
  const std::string series =
      "gcon_serve_rejected_total{model=\"default\",code=\"overloaded\"}";
  const auto& registry = obs::MetricsRegistry::Global();
  FaultInjector::Global().Reset();
  auto server = OneModelServer(graph, artifact);
  const double before =
      std::max(SeriesValue(registry.PrometheusText(), series), 0.0);

  FaultInjector::Global().Arm(Fault::kQueueFull, 1);
  ServeRequest request;
  request.node = 0;
  try {
    server->Query(request);
    ADD_FAILURE() << "the injected full queue admitted the query";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
  }
  FaultInjector::Global().Reset();
  EXPECT_NE(server->StatsJson().find("\"rejected_overload\": 1,"),
            std::string::npos)
      << server->StatsJson();

  server->ResetStats();
  const std::string stats = server->StatsJson();
  EXPECT_NE(stats.find("\"rejected_overload\": 0,"), std::string::npos)
      << stats;
  EXPECT_EQ(stats.find("\"rejected_overload\": 1,"), std::string::npos)
      << stats;
  EXPECT_DOUBLE_EQ(SeriesValue(registry.PrometheusText(), series) - before,
                   1.0);
}

TEST_F(ServeObservabilityTest, BinaryMetricsVerbAnswersTheSameExposition) {
  const TransportTally tally_before = ReadTally(server_.get(), "binary");
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));
  client.Send(EncodeAdminFrame(AdminVerb::kMetrics));
  FrameType type{};
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kAdminReply);
  // One exposition, two framings: the reply payload IS the Prometheus
  // text, terminator and all.
  ASSERT_GE(payload.size(), 6u);
  EXPECT_EQ(payload.substr(payload.size() - 6), "# EOF\n") << payload;
  EXPECT_NE(payload.find("# TYPE gcon_serve_accepted_total counter\n"),
            std::string::npos)
      << payload;
  EXPECT_NE(payload.find("gcon_dp_epsilon{model=\"default\"}"),
            std::string::npos)
      << payload;

  // A query too, then the counters against what the client moved.
  ServeRequest request;
  request.id = 5;
  request.node = 3;
  client.Send(EncodeRequestFrame(request));
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kResponse);
  client.Quit();
  ExpectTallyDelta(tally_before, ReadTally(server_.get(), "binary"),
                   client.bytes_sent(), client.bytes_received());
}

TEST_F(ServeObservabilityTest, JsonTraceVerbServesSampledSpanTimelines) {
  TraceArmGuard armed(/*sample_every=*/1);
  WireClient client(port());
  client.SendLine("{\"id\": 421, \"node\": 2}");
  ASSERT_EQ(client.ReadLine().find("error"), std::string::npos);

  client.SendLine("{\"cmd\": \"trace\"}");
  const std::string trace = client.ReadLine();
  EXPECT_NE(trace.find("\"sample_every\": 1"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"traces\": ["), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"id\": 421"), std::string::npos) << trace;
  // Every station of the span glossary appears for a batched node query.
  for (int m = 0; m < obs::kNumTraceMarks; ++m) {
    EXPECT_NE(trace.find(obs::TraceMarkName(m)), std::string::npos)
        << obs::TraceMarkName(m) << " missing in " << trace;
  }
  EXPECT_NE(trace.find("\"transport\": \"json\""), std::string::npos) << trace;
}

TEST_F(ServeObservabilityTest, BinaryTraceVerbServesTheSameDocument) {
  TraceArmGuard armed(/*sample_every=*/1);
  FrameClient client(port());
  ASSERT_EQ(client.Hello(), EncodeHello(kFrameVersion));

  ServeRequest request;
  request.id = 9001;
  request.node = 1;
  client.Send(EncodeRequestFrame(request));
  FrameType type{};
  std::string payload;
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  ASSERT_EQ(type, FrameType::kResponse);

  client.Send(EncodeAdminFrame(AdminVerb::kTrace));
  ASSERT_TRUE(client.ReadFrame(&type, &payload));
  EXPECT_EQ(type, FrameType::kAdminReply);
  EXPECT_NE(payload.find("\"traces\": ["), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"id\": 9001"), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"transport\": \"binary\""), std::string::npos)
      << payload;
}

TEST_F(ServeObservabilityTest, StatsCarriesBuildInfo) {
  WireClient client(port());
  client.SendLine("{\"cmd\": \"stats\"}");
  const std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("\"build\": {"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"git_sha\": "), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"compiler\": "), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"simd\": "), std::string::npos) << stats;
}

TEST_F(ServeObservabilityTest, EpsilonGaugeTracksConstructionAndPublish) {
  // SyntheticArtifact trains with epsilon = 1.0, and the server Set()s the
  // gauge at construction — so whatever earlier tests did to the global
  // registry, this fixture's SetUp pinned it to the served budget.
  obs::Gauge* gauge = obs::MetricsRegistry::Global().gauge(
      "gcon_dp_epsilon", "", {{"model", "default"}});
  EXPECT_DOUBLE_EQ(gauge->value(), 1.0);

  // A repeated release of the same population spends fresh budget: publish
  // ADDS the incoming artifact's epsilon (GAP repeated-release total).
  server_->Publish("default", InferenceSession(*default_artifact_, graph_));
  EXPECT_DOUBLE_EQ(gauge->value(), 2.0);

  // The running total is on the wire, not just in memory.
  WireClient client(port());
  client.SendLine("metrics");
  EXPECT_DOUBLE_EQ(
      SeriesValue(client.ReadExposition(),
                  "gcon_dp_epsilon{model=\"default\"}"),
      2.0);
}

TEST_F(ServeObservabilityTest, ServedBitsAreIdenticalWithObsOnAndOff) {
  // The invariant that makes always-on metrics safe to ship: disarming the
  // whole tier must not change a single response byte.
  WireClient client(port());
  client.SendLine("{\"id\": 77, \"node\": 2}");
  const std::string with_obs = client.ReadLine();
  ASSERT_FALSE(with_obs.empty());
  ASSERT_EQ(with_obs.find("error"), std::string::npos) << with_obs;

  obs::SetMetricsEnabled(false);
  client.SendLine("{\"id\": 77, \"node\": 2}");
  const std::string without_obs = client.ReadLine();
  obs::SetMetricsEnabled(true);

  EXPECT_EQ(with_obs, without_obs);
}

}  // namespace
}  // namespace gcon
