#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iostream>
#include <locale>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "dp/budget_ledger.h"
#include "linalg/ops.h"
#include "obs/build_info.h"
#include "propagation/cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fault_injection.h"
#include "serve/frame.h"
#include "serve/serve_error.h"
#include "serve/wire.h"

namespace gcon {
namespace {

std::vector<ModelRouter::NamedModel> SingleModel(InferenceSession session) {
  std::vector<ModelRouter::NamedModel> models;
  models.push_back({"default", std::move(session)});
  return models;
}

/// Cumulative privacy budget released for one model name. GAP-style
/// repeated-release accounting: the gauge MIRRORS the budget ledger's
/// charged total for (population, model) — restored from the ledger at
/// construction (a restart, or a second server in the same process, must
/// show the running total, never the incoming artifact's own epsilon) and
/// re-set to the new total after every committed publish.
obs::Gauge* EpsilonGauge(const std::string& model) {
  return obs::MetricsRegistry::Global().gauge(
      "gcon_dp_epsilon",
      "Cumulative epsilon released across publishes of this model "
      "(RDP-accounted artifacts; repeated-release total).",
      {{"model", model}});
}

}  // namespace

InferenceServer::InferenceServer(InferenceSession session,
                                 ServeOptions options)
    : InferenceServer(SingleModel(std::move(session)), options) {}

InferenceServer::InferenceServer(std::vector<ModelRouter::NamedModel> models,
                                 ServeOptions options)
    : router_(std::move(models)) {
  // One handler per model, run by whichever waiting thread takes the batch:
  // one gather + one GEMM per batch, then per-query argmax. Each batch takes
  // ONE owning snapshot of its model's published session — a concurrent
  // Publish flips the router slot without disturbing this batch (the
  // snapshot keeps the old version alive until the batch completes, the
  // "drain in-flight against the old session" half of hot-swap), and a
  // batch never mixes two versions.
  std::vector<MicroBatcher::BatchHandler> handlers;
  handlers.reserve(static_cast<std::size_t>(router_.size()));
  for (int m = 0; m < router_.size(); ++m) {
    handlers.push_back([this, m](std::vector<PendingQuery*>& batch) {
      const std::shared_ptr<const InferenceSession> session =
          router_.SessionRef(m);
      // Chaos site: the installed callback (a Publish against this very
      // model) runs inside the snapshot-to-GEMM window — the exact race
      // the atomic hot-swap must win.
      FaultInjector::Global().FireCallback(Fault::kSwapDuringBatch);
      std::vector<const ServeRequest*> requests;
      requests.reserve(batch.size());
      for (PendingQuery* p : batch) requests.push_back(&p->request);
      const Matrix logits = session->QueryBatch(requests);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->response.logits = logits.RowCopy(i);
        batch[i]->response.label =
            static_cast<int>(RowArgMax(logits, i));
      }
    });
  }
  // Budget accounting before any query is admitted. The ledger — not the
  // incoming artifacts — is the system of record: constructing a server
  // over an already-charged release restores the cumulative total (the old
  // code Set() the gauge to artifact_epsilon here, silently erasing every
  // prior release's charge on restart or reconstruction).
  options.Validate();  // budget_cap checked before the ledger spends on it
  budget_cap_ = options.budget_cap;
  ledger_ = options.budget_ledger.empty()
                ? std::make_unique<BudgetLedger>()
                : std::make_unique<BudgetLedger>(options.budget_ledger);
  model_fp_.reserve(static_cast<std::size_t>(router_.size()));
  std::vector<std::string> queue_labels;
  queue_labels.reserve(static_cast<std::size_t>(router_.size()));
  for (int m = 0; m < router_.size(); ++m) {
    queue_labels.push_back(router_.name(m));
    const std::shared_ptr<const InferenceSession> session =
        router_.SessionRef(m);
    model_fp_.push_back(FingerprintGraph(*session->graph_ptr()));
    const double total = ledger_->AccountArtifact(
        model_fp_.back(), router_.name(m), session->artifact_epsilon(),
        session->artifact_delta(), session->artifact_fingerprint(),
        budget_cap_);
    EpsilonGauge(router_.name(m))->Set(total);
  }
  batcher_ = std::make_unique<MicroBatcher>(options, std::move(handlers),
                                            std::move(queue_labels));
}

ServeFuture InferenceServer::QueryAsync(ServeRequest request) {
  const int model = router_.Resolve(request.model);
  // Hold an owning snapshot across validation so a concurrent Publish
  // cannot retire the session mid-check. (Publish enforces that the
  // replacement serves the same population, so a request valid against
  // this snapshot stays valid for whichever version its batch executes.)
  router_.SessionRef(model)->ValidateRequest(request);
  return batcher_->Submit(static_cast<std::size_t>(model),
                          std::move(request));
}

ServeResponse InferenceServer::Query(ServeRequest request) {
  return QueryAsync(std::move(request)).get();
}

double InferenceServer::PublishAccounted(const std::string& target,
                                         InferenceSession session) {
  // Resolve first: a publish against an unknown model must fail before the
  // ledger is touched (no reserve/abort churn for a request that cannot
  // possibly release anything). The key uses the SERVING population's
  // fingerprint — the router guarantees a swap never changes it.
  const int index = router_.Resolve(target);
  std::lock_guard<std::mutex> lock(publish_mu_);
  BudgetLedger::Reservation reservation;
  try {
    reservation = ledger_->Reserve(
        model_fp_[static_cast<std::size_t>(index)], target,
        session.artifact_epsilon(), session.artifact_delta(),
        session.artifact_fingerprint(), budget_cap_);
  } catch (const BudgetExhaustedError& e) {
    // The coded rejection both transports format; old bits keep serving.
    throw ServeError(ServeErrorCode::kBudgetExhausted, e.what());
  }
  try {
    router_.Publish(target, std::move(session));
  } catch (...) {
    // Failed swap (population mismatch, ...): refund — a publish that
    // never released anything must not spend budget.
    ledger_->Abort(reservation);
    throw;
  }
  const double total = ledger_->Commit(reservation);
  EpsilonGauge(target)->Set(total);
  return total;
}

void InferenceServer::Publish(const std::string& name,
                              InferenceSession session) {
  const std::string target =
      name.empty() ? router_.default_model() : name;
  PublishAccounted(target, std::move(session));
}

std::string InferenceServer::PublishFromFile(const std::string& name,
                                             const std::string& path) {
  const std::string target =
      name.empty() ? router_.default_model() : name;
  const int index = router_.Resolve(target);
  // The replacement is built over the SAME shared serving population the
  // current version uses — a swap changes model weights, never the graph.
  // Loading and validating happen BEFORE any ledger touch: an unreadable
  // artifact or hostile header fails here with the budget unspent.
  InferenceSession incoming = InferenceSession::FromFile(
      path, router_.SessionRef(index)->graph_ptr());
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(17);
  out << "{\"published\": \"" << target
      << "\", \"nodes\": " << incoming.num_nodes()
      << ", \"classes\": " << incoming.num_classes()
      << ", \"features\": " << incoming.feature_dim() << ", \"per_query\": "
      << (incoming.per_query() ? "true" : "false")
      << ", \"epsilon\": " << incoming.artifact_epsilon();
  const double total = PublishAccounted(target, std::move(incoming));
  out << ", \"epsilon_total\": " << total << "}";
  return out.str();
}

std::string InferenceServer::BudgetJson() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(17);
  out << "{\"budget\": [";
  for (int m = 0; m < router_.size(); ++m) {
    const BudgetLedger::BudgetTotals totals = ledger_->Totals(
        model_fp_[static_cast<std::size_t>(m)], router_.name(m));
    out << (m == 0 ? "" : ", ") << "{\"model\": \"" << router_.name(m)
        << "\", \"epsilon\": " << totals.epsilon
        << ", \"delta\": " << totals.delta
        << ", \"publishes\": " << totals.publishes
        << ", \"cap\": " << budget_cap_;
    if (budget_cap_ > 0) {
      out << ", \"remaining\": " << std::max(0.0, budget_cap_ - totals.epsilon);
    }
    out << "}";
  }
  out << "], \"ledger\": \"" << EscapeJson(ledger_->path())
      << "\", \"persistent\": " << (ledger_->persistent() ? "true" : "false")
      << "}";
  return out.str();
}

void InferenceServer::BeginDrain() { batcher_->BeginDrain(); }

void InferenceServer::Drain() { batcher_->Stop(); }

LatencyStats::Snapshot InferenceServer::latency() const {
  if (router_.size() == 1) return batcher_->latency(0).Summarize();
  LatencyStats merged;
  for (int m = 0; m < router_.size(); ++m) {
    merged.Add(batcher_->latency(static_cast<std::size_t>(m)));
  }
  return merged.Summarize();
}

LatencyStats::Snapshot InferenceServer::latency(int model) const {
  return batcher_->latency(static_cast<std::size_t>(model)).Summarize();
}

std::uint64_t InferenceServer::queries_served() const {
  return batcher_->queries_served();
}

std::uint64_t InferenceServer::batches_run() const {
  return batcher_->batches_run();
}

void InferenceServer::ResetStats() { batcher_->ResetCounters(); }

std::string InferenceServer::MetricsText() {
  batcher_->RefreshObsMetrics();
  return obs::MetricsRegistry::Global().PrometheusText();
}

namespace {

void AppendCounters(std::ostream* out, std::uint64_t queries,
                    std::uint64_t batches,
                    const LatencyStats::Snapshot& lat,
                    std::uint64_t rejected_overload,
                    std::uint64_t rejected_deadline,
                    std::uint64_t queue_peak) {
  *out << "\"queries\": " << queries << ", \"batches\": " << batches
       << ", \"mean_batch\": "
       << (batches == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(batches))
       << ", \"mean_us\": " << lat.mean_us << ", \"p50_us\": " << lat.p50_us
       << ", \"p95_us\": " << lat.p95_us << ", \"p99_us\": " << lat.p99_us
       << ", \"max_us\": " << lat.max_us
       << ", \"rejected_overload\": " << rejected_overload
       << ", \"rejected_deadline\": " << rejected_deadline
       << ", \"queue_peak\": " << queue_peak;
}

}  // namespace

std::string InferenceServer::StatsJson() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // wire bytes are locale-invariant
  out.precision(6);
  // Aggregate queue_peak is the max across the per-model queues (peaks on
  // different queues need not coincide in time, so a sum would overstate).
  std::uint64_t peak = 0;
  for (int m = 0; m < router_.size(); ++m) {
    peak = std::max(peak, batcher_->queue_peak(static_cast<std::size_t>(m)));
  }
  out << "{";
  AppendCounters(&out, queries_served(), batches_run(), latency(),
                 batcher_->rejected_overload(), batcher_->rejected_deadline(),
                 peak);
  out << ", \"models\": [";
  for (int m = 0; m < router_.size(); ++m) {
    const auto q = static_cast<std::size_t>(m);
    out << (m == 0 ? "" : ", ") << "{\"name\": \"" << router_.name(m)
        << "\", ";
    AppendCounters(&out, batcher_->queries_served(q), batcher_->batches_run(q),
                   latency(m), batcher_->rejected_overload(q),
                   batcher_->rejected_deadline(q), batcher_->queue_peak(q));
    out << "}";
  }
  out << "], \"build\": " << obs::BuildInfoJson() << "}";
  return out.str();
}

namespace {

[[noreturn]] void SocketError(const std::string& what) {
  throw std::runtime_error("serve: " + what + " (" +
                           std::strerror(errno) + ")");
}

/// One accepted connection's socket, counted under its transport: every
/// byte a codec reads and every reply the connection loop writes passes
/// through here, so gcon_serve_{connections,bytes}_total count each once.
/// It never closes the fd — RunTcpServer owns that.
class Socket {
 public:
  Socket(int fd, int transport) : fd_(fd), transport_(transport) {
    auto& registry = obs::MetricsRegistry::Global();
    const std::string name = obs::TransportName(transport);
    const auto bytes = [&](const char* direction) {
      return registry.counter("gcon_serve_bytes_total",
                              "Wire bytes moved, by transport and direction.",
                              {{"transport", name}, {"direction", direction}});
    };
    bytes_in_ = bytes("in");
    bytes_out_ = bytes("out");
    registry
        .counter("gcon_serve_connections_total",
                 "Accepted TCP connections, by transport.",
                 {{"transport", name}})
        ->Increment();
  }
  int transport() const { return transport_; }

  /// One recv of at most `cap` bytes. Returns 0 on EOF (including the
  /// SHUT_RD a server shutdown applies), a dead socket, or an expired
  /// SO_RCVTIMEO: a client silent for io_timeout_ms is hung up on rather
  /// than pinning this thread.
  std::size_t RecvSome(char* dst, std::size_t cap) {
    for (;;) {
      const ssize_t n = ::recv(fd_, dst, cap, 0);
      if (n < 0 && errno == EINTR) continue;  // signal — retry the read
      if (n <= 0) return 0;
      bytes_in_->Increment(static_cast<std::uint64_t>(n));
      return static_cast<std::size_t>(n);
    }
  }

  /// Reads exactly `want` bytes; false when RecvSome gives up first.
  bool RecvAll(char* dst, std::size_t want) {
    for (std::size_t got = 0; got < want;) {
      const std::size_t n = RecvSome(dst + got, want - got);
      if (n == 0) return false;
      got += n;
    }
    return true;
  }

  /// Non-blocking MSG_PEEK: true when the client has a byte queued.
  bool HasQueuedBytes() const {
    char probe;
    return ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  }

  /// Writes all of `data`, SIGPIPE-safe (MSG_NOSIGNAL: a vanished client
  /// is a return code on this thread, not a process signal). False when
  /// the peer went away or SO_SNDTIMEO expired because it stopped reading.
  /// A short send resumes where it stopped, so the stream can tear but
  /// never duplicate.
  bool Send(const std::string& data) {
    if (FaultInjector::Global().ShouldFire(Fault::kTornSocket)) {
      // Chaos site: deliver half the message, then kill the connection —
      // the mid-response client crash. The server side must just close.
      ::send(fd_, data.data(), data.size() / 2, MSG_NOSIGNAL);
      ::shutdown(fd_, SHUT_RDWR);
      return false;
    }
    for (std::size_t sent = 0; sent < data.size();) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;  // signal — a retry, not an error
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    bytes_out_->Increment(data.size());
    return true;
  }

 private:
  int fd_;
  int transport_;
  obs::Counter* bytes_in_;
  obs::Counter* bytes_out_;
};

/// One client message, as a codec decoded it.
struct Inbound {
  enum class Kind {
    kQuery,   ///< `request` is a query to admit
    kAdmin,   ///< `command` is an admin verb; `request` carries id/model/path
    kReject,  ///< a defect with framing intact: answer `error`, keep reading
    kFatal,   ///< framing is lost: answer `error`, then hang up
  };
  Kind kind = Kind::kQuery;
  WireCommand command = WireCommand::kQuery;
  ServeRequest request;                ///< request.id also ids an error
  std::optional<ServeErrorCode> code;  ///< coded rejection when set
  std::string error;
};

/// A wire format: decodes client messages and encodes the server's
/// answers. The connection loop (RunConnection) owns everything else.
class Codec {
 public:
  virtual ~Codec() = default;
  /// Decodes the next message from bytes already read; false when a whole
  /// message is not buffered yet (call Fill, then Decode again).
  virtual bool Decode(Inbound* message) = 0;
  /// Blocks to read more; false on EOF, a dead socket or a timeout.
  virtual bool Fill() = 0;
  virtual std::string EncodeResponse(const ServeResponse& response) const = 0;
  virtual std::string EncodeError(std::int64_t id,
                                  std::optional<ServeErrorCode> code,
                                  const std::string& message) const = 0;
  virtual std::string EncodeAdminReply(WireCommand command,
                                       const std::string& body) const = 0;
};

/// Newline JSON (serve/wire.h).
class LineCodec final : public Codec {
 public:
  explicit LineCodec(Socket* socket) : socket_(socket) {}

  bool Decode(Inbound* message) override {
    for (std::size_t eol = buffer_.find('\n', start_);
         eol != std::string::npos; eol = buffer_.find('\n', start_)) {
      const std::string line = buffer_.substr(start_, eol - start_);
      start_ = eol + 1;
      if (line.size() > kMaxWireLineBytes) return Oversized(line, message);
      const std::size_t begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos) continue;  // blank line
      // A bare `metrics` line (no JSON) serves the Prometheus exposition,
      // so `echo metrics | nc host port` scrapes without quoting JSON.
      const std::size_t end = line.find_last_not_of(" \t\r");
      if (line.compare(begin, end - begin + 1, "metrics") == 0) {
        message->kind = Inbound::Kind::kAdmin;
        message->command = WireCommand::kMetrics;
      } else if (!ParseWireRequest(line, &message->command,
                                   &message->request, &message->error)) {
        message->kind = Inbound::Kind::kReject;
      } else {
        message->kind = message->command == WireCommand::kQuery
                            ? Inbound::Kind::kQuery
                            : Inbound::Kind::kAdmin;
      }
      return true;
    }
    if (buffer_.size() - start_ > kMaxWireLineBytes) {
      return Oversized(buffer_.substr(start_), message);
    }
    return false;
  }

  bool Fill() override {
    buffer_.erase(0, start_);
    start_ = 0;
    char chunk[4096];
    const std::size_t n = socket_->RecvSome(chunk, sizeof(chunk));
    buffer_.append(chunk, n);
    return n > 0;
  }

  std::string EncodeResponse(const ServeResponse& response) const override {
    return FormatWireResponse(response) + "\n";
  }
  std::string EncodeError(std::int64_t id, std::optional<ServeErrorCode> code,
                          const std::string& message) const override {
    return (code ? FormatWireError(id, *code, message)
                 : FormatWireError(id, message)) +
           "\n";
  }
  std::string EncodeAdminReply(WireCommand command,
                               const std::string& body) const override {
    // The exposition is multi-line; its trailing "# EOF" line is the
    // framing sentinel clients read to.
    return command == WireCommand::kMetrics ? body : body + "\n";
  }

 private:
  /// A line (or partial line) past the size cap means the client lost
  /// framing: report with whatever id is recoverable, then hang up — there
  /// is no byte to resync on.
  static bool Oversized(const std::string& data, Inbound* message) {
    message->kind = Inbound::Kind::kFatal;
    RecoverWireId(data, &message->request.id);
    message->error = "oversized request line (limit " +
                     std::to_string(kMaxWireLineBytes) + " bytes)";
    return true;
  }

  Socket* socket_;
  std::string buffer_;
  std::size_t start_ = 0;  ///< first byte not yet decoded
};

/// Binary frames (serve/frame.h): each payload lands in the connection's
/// one reused buffer with one recv and is decoded into an owning request.
class FrameCodec final : public Codec {
 public:
  explicit FrameCodec(Socket* socket) : socket_(socket) {}

  /// Hello handshake: validates the client's magic + version and answers
  /// with the negotiated version, min(client, server). False = hang up.
  bool Handshake() {
    char hello[kFrameHelloBytes];
    if (!socket_->RecvAll(hello, sizeof(hello))) return false;
    std::uint16_t client_version = 0;
    std::string error;
    if (!ParseHello(hello, sizeof(hello), &client_version, &error)) {
      socket_->Send(EncodeError(0, ServeErrorCode::kMalformedFrame, error));
      return false;
    }
    return socket_->Send(EncodeHello(std::min(client_version, kFrameVersion)));
  }

  bool Decode(Inbound* message) override {
    if (!frame_) return false;
    *message = std::move(*frame_);
    frame_.reset();
    return true;
  }

  /// Reads and decodes one whole frame: a header recv, then one payload
  /// recv into the reused buffer.
  bool Fill() override {
    char header[kFrameHeaderBytes];
    if (!socket_->RecvAll(header, sizeof(header))) return false;
    Inbound& message = frame_.emplace();
    message.code = ServeErrorCode::kMalformedFrame;  // for any defect
    FrameType type{};
    std::uint32_t length = 0;
    if (!ParseFrameHeader(header, &type, &length, &message.error)) {
      // Hostile length or unknown type: framing is lost (or the peer
      // speaks a future dialect), nothing to resync on.
      message.kind = Inbound::Kind::kFatal;
      return true;
    }
    payload_.resize(length);
    if (length > 0 && !socket_->RecvAll(payload_.data(), length)) {
      frame_.reset();
      return false;
    }
    // A payload defect with framing intact is the binary analogue of a
    // malformed JSON line: coded error (a request's id from offset 0..7),
    // keep serving.
    message.kind = Inbound::Kind::kReject;
    if (type == FrameType::kRequest) {
      if (ParseRequestPayload(payload_.data(), length, &message.request,
                              &message.error)) {
        message.kind = Inbound::Kind::kQuery;
      }
    } else if (type == FrameType::kAdmin) {
      AdminVerb verb{};
      if (ParseAdminPayload(payload_.data(), length, &verb,
                            &message.request.model, &message.request.path,
                            &message.error)) {
        message.command = Command(verb);
        message.kind = Inbound::Kind::kAdmin;
      }
    } else {
      // A server-to-client type arriving at the server is a protocol
      // violation, not a payload defect.
      message.kind = Inbound::Kind::kFatal;
      message.error =
          "unexpected frame type (clients send requests and admin frames "
          "only)";
    }
    return true;
  }

  std::string EncodeResponse(const ServeResponse& response) const override {
    return EncodeResponseFrame(response);
  }
  std::string EncodeError(std::int64_t id, std::optional<ServeErrorCode> code,
                          const std::string& message) const override {
    return EncodeErrorFrame(id, code ? WireErrorCode(*code) : 0, message);
  }
  std::string EncodeAdminReply(WireCommand /*command*/,
                               const std::string& body) const override {
    return EncodeAdminReplyFrame(body);
  }

 private:
  /// The admin verb as the wire command it spells, so the verb -> server
  /// call dispatch exists once, over WireCommand.
  static WireCommand Command(AdminVerb verb) {
    switch (verb) {
      case AdminVerb::kStats: return WireCommand::kStats;
      case AdminVerb::kListModels: return WireCommand::kListModels;
      case AdminVerb::kQuit: return WireCommand::kQuit;
      case AdminVerb::kPublish: return WireCommand::kPublish;
      case AdminVerb::kDrain: return WireCommand::kDrain;
      case AdminVerb::kMetrics: return WireCommand::kMetrics;
      case AdminVerb::kTrace: return WireCommand::kTrace;
      case AdminVerb::kBudget: return WireCommand::kBudget;
    }
    return WireCommand::kQuery;  // unreachable: ParseAdminPayload checks
  }

  Socket* socket_;
  std::vector<char> payload_;  ///< the last frame's payload bytes
  std::optional<Inbound> frame_;  ///< read by Fill, not yet decoded
};

/// Encodes the exception being handled as `codec`'s error for `id`: a
/// ServeError keeps its code, so a client can tell "retry" from "bug".
std::string EncodeCurrentException(const Codec& codec, std::int64_t id) {
  try {
    throw;
  } catch (const ServeError& e) {
    return codec.EncodeError(id, e.code(), e.what());
  } catch (const std::exception& e) {
    return codec.EncodeError(id, std::nullopt, e.what());
  }
}

/// The one admin dispatch: the JSON body answering an admin verb.
std::string AdminBody(InferenceServer* server, const Inbound& message) {
  switch (message.command) {
    case WireCommand::kStats: return server->StatsJson();
    case WireCommand::kListModels: return server->ListModelsJson();
    case WireCommand::kMetrics: return server->MetricsText();
    case WireCommand::kTrace: return obs::TraceRecorder::Global().TracesJson();
    case WireCommand::kBudget: return server->BudgetJson();
    case WireCommand::kPublish:
      return server->PublishFromFile(message.request.model,
                                     message.request.path);
    case WireCommand::kDrain:
      server->BeginDrain();
      return "{\"draining\": true}";
    case WireCommand::kQuery:
    case WireCommand::kQuit:
      break;
  }
  throw std::logic_error("no admin reply for this command");
}

/// The connection state machine, one for both transports. Queries are
/// pipelined through QueryAsync and answered strictly in request order.
/// Everything already admitted is answered before any admin reply or
/// error, and before the connection closes (its client may be gone, but
/// every accepted query still resolves and the per-model counters stay
/// truthful).
///
/// The flush rule: before blocking for the next message, if answers are
/// pending, the codec has no complete message buffered, and a non-blocking
/// peek finds the socket empty, flush: await the answers in order, which
/// runs pending batches on this thread (flat combining, serve/batcher.h),
/// and send them all at once. A burst a client pipelined before waiting
/// thus runs as one batch. A longer burst is awaited every max_batch (or
/// max_queue) queries, so it cannot fill its model's queue by itself; its
/// answers still go out only at a flush, once the client has nothing more
/// queued, so this thread does not write while the client is writing.
void RunConnection(InferenceServer* server, Socket* socket, Codec* codec) {
  struct InFlight {
    std::int64_t id;
    ServeFuture future;
    std::shared_ptr<obs::RequestTrace> trace;
  };
  const ServeOptions& options = server->options();
  const auto await_every = static_cast<std::size_t>(
      options.max_queue > 0 ? std::min(options.max_batch, options.max_queue)
                            : options.max_batch);
  std::vector<InFlight> pending;
  std::size_t awaited = 0;  // pending[0, awaited) are encoded in `answers`
  std::string answers;
  bool open = true;  // false once a write fails: stop reading and writing
  auto send = [&](const std::string& data) {
    if (open) open = socket->Send(data);
  };
  auto await = [&] {
    for (; awaited < pending.size(); ++awaited) {
      try {
        answers += codec->EncodeResponse(pending[awaited].future.get());
      } catch (...) {
        answers += EncodeCurrentException(*codec, pending[awaited].id);
      }
    }
  };
  auto flush = [&] {
    await();
    if (!answers.empty()) send(answers);
    answers.clear();
    for (InFlight& query : pending) {
      obs::TraceRecorder::Global().Finish(query.trace);
    }
    pending.clear();
    awaited = 0;
  };
  auto next = [&](Inbound* message) {
    while (!codec->Decode(message)) {
      const bool answering = !pending.empty() || !answers.empty();
      if (answering && !socket->HasQueuedBytes()) flush();
      if (!open || !codec->Fill()) return false;
    }
    return true;
  };

  for (Inbound message; open && next(&message); message = Inbound{}) {
    ServeRequest& request = message.request;
    if (message.kind == Inbound::Kind::kQuery) {
      request.trace =
          obs::TraceRecorder::Global().MaybeStart(request.id,
                                                  socket->transport());
      const std::int64_t id = request.id;
      auto trace = request.trace;
      try {
        pending.push_back(
            {id, server->QueryAsync(std::move(request)), std::move(trace)});
      } catch (...) {
        // Admission rejection (overloaded / draining / invalid): answered
        // in order at the next flush, coded where it has a code, so a
        // client backs off instead of hanging.
        await();
        answers += EncodeCurrentException(*codec, id);
      }
      if (pending.size() - awaited >= await_every) await();
      continue;
    }
    flush();
    if (message.kind == Inbound::Kind::kAdmin) {
      if (message.command == WireCommand::kQuit) break;
      std::string reply;
      try {
        reply = codec->EncodeAdminReply(message.command,
                                        AdminBody(server, message));
      } catch (...) {
        // Coded refusal (budget_exhausted) or prose (bad path).
        reply = EncodeCurrentException(*codec, request.id);
      }
      send(reply);
    } else {
      send(codec->EncodeError(request.id, message.code, message.error));
      if (message.kind == Inbound::Kind::kFatal) break;
    }
  }
  flush();
}

/// Transport dispatch: peek the first byte without consuming it. A binary
/// client's hello starts with kFramePreamble (0xC0), which no JSON line
/// can; everything else is newline JSON.
void ServeConnection(InferenceServer* server, int fd) {
  unsigned char first = 0;
  ssize_t n;
  do {
    n = ::recv(fd, &first, 1, MSG_PEEK);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return;  // EOF, dead socket, or SO_RCVTIMEO before any byte
  if (first == kFramePreamble) {
    Socket socket(fd, obs::kTransportBinary);
    FrameCodec codec(&socket);
    if (codec.Handshake()) RunConnection(server, &socket, &codec);
  } else {
    Socket socket(fd, obs::kTransportJson);
    LineCodec codec(&socket);
    RunConnection(server, &socket, &codec);
  }
}

}  // namespace

int RunTcpServer(InferenceServer* server, int port,
                 const std::atomic<bool>* shutdown,
                 std::atomic<int>* bound_port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) SocketError("cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd);
    SocketError("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(listen_fd, 128) != 0) {
    ::close(listen_fd);
    SocketError("cannot listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int actual_port = ntohs(addr.sin_port);

  // stderr, with the rest of the operational logging: stdout must stay
  // machine-clean for callers like bench_serve whose stdout is parsed
  // (the bench embeds two TCP servers and emits one JSON line).
  std::cerr << "serving on 127.0.0.1:" << actual_port << " (models="
            << server->router().NameList() << ", "
            << server->session().num_nodes() << " nodes, "
            << server->session().num_classes() << " classes, max_batch="
            << server->options().max_batch
            << ", transports=json+binary, " << obs::BuildSummary() << ")"
            << std::endl;
  if (bound_port != nullptr) {
    bound_port->store(actual_port, std::memory_order_release);
  }

  // Per-connection read/write timeouts: a client that stalls (stops
  // sending, or stops reading its responses) is disconnected after
  // io_timeout_ms instead of pinning its connection thread forever.
  const int io_timeout_ms = server->options().io_timeout_ms;
  timeval io_timeout{};
  io_timeout.tv_sec = io_timeout_ms / 1000;
  io_timeout.tv_usec = (io_timeout_ms % 1000) * 1000;

  // Connection threads are detached (a long-running server reclaims each
  // thread's stack when its client leaves) and their fds registered, so
  // shutdown can half-close them: SHUT_RD wakes a thread parked in recv
  // on an idle client with EOF at once, instead of after io_timeout_ms.
  // A thread deregisters and closes its fd under the lock, so shutdown
  // never touches a closed (or reused) descriptor.
  struct OpenConnections {
    std::mutex mu;
    std::condition_variable closed;
    std::set<int> fds;
  };
  const auto connections = std::make_shared<OpenConnections>();
  int backoff_ms = 1;
  for (;;) {
    if (shutdown != nullptr && shutdown->load(std::memory_order_acquire)) {
      break;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout (recheck shutdown) or EINTR
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Transient accept failures must never kill a serving process.
      // A client that vanished mid-handshake or an interrupting signal
      // costs nothing — try again immediately. Resource exhaustion
      // (fd table full, kernel memory) backs off with doubling sleeps:
      // retrying EMFILE in a tight loop is a busy-wait that starves the
      // very connections whose close would free the descriptors.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        GCON_LOG(WARNING) << "serve: accept failed ("
                          << std::strerror(errno) << "); backing off "
                          << backoff_ms << "ms";
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 1000);
        continue;
      }
      GCON_LOG(ERROR) << "serve: accept failed (" << std::strerror(errno)
                      << "); continuing";
      continue;
    }
    backoff_ms = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout,
                 sizeof(io_timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout,
                 sizeof(io_timeout));
    // Answers go out as soon as they are flushed, not held back by Nagle
    // until the client's ACK of the previous segment.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(connections->mu);
      connections->fds.insert(fd);
    }
    std::thread([server, fd, connections] {
      ServeConnection(server, fd);
      {
        std::lock_guard<std::mutex> lock(connections->mu);
        connections->fds.erase(fd);
        ::close(fd);
      }
      connections->closed.notify_all();
    }).detach();
  }
  ::close(listen_fd);
  // Clean shutdown: stop reading every open connection, then wait for each
  // to answer what it already accepted and close — the detached handlers
  // borrow `server`.
  std::unique_lock<std::mutex> lock(connections->mu);
  for (const int fd : connections->fds) ::shutdown(fd, SHUT_RD);
  connections->closed.wait(lock, [&] { return connections->fds.empty(); });
  return 0;
}

}  // namespace gcon
