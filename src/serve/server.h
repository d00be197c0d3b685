// The inference server: a ModelRouter's named InferenceSessions behind one
// flat-combining MicroBatcher, plus the TCP front end `gcon_cli serve`
// speaks.
//
// In-process use (tests, benches, embedding applications):
//
//   InferenceServer server(std::move(session), {.max_batch=32});
//   ServeResponse r = server.Query({.id=1, .node=v});   // blocking
//   // or pipeline: auto f = server.QueryAsync(req); ... f.get();
//
// The threads waiting for answers (Query, ServeFuture::get) run the
// batches (serve/batcher.h).
//
// Multi-model: construct with a vector of {name, session} entries — one
// process hosts several published artifacts. Each model keeps its own
// pending queue, counters, and latency histogram, and a batch never mixes
// models. Requests route by ServeRequest.model; empty routes to the
// first-listed (default) model, so single-model clients never change.
//
// Every query is validated on the submitting thread (bad node, wrong-length
// features, unknown model -> throw at the call site, not a poisoned batch),
// then coalesced by the batcher; the batch handler gathers the propagated
// feature rows — encoding feature-carrying queries first — and runs one
// GEMM. Responses are bitwise identical to one-at-a-time offline inference,
// so clients cannot observe how their queries were batched or routed.
//
// The TCP front end is deliberately thin: a loopback-bound listener, one
// thread per connection, each request answered in order via QueryAsync so
// a client's pipelined burst runs as one batch on its connection thread.
// Two transports share the port, negotiated from the connection's first
// byte: newline-JSON (serve/wire.h — the admin/debug transport) and
// length-prefixed binary frames (serve/frame.h — the fast path, whose f32
// feature payloads are gathered into the GEMM panel without a copy or a
// text round-trip). Each is a codec under one connection state machine, so
// both answer identical bits in the same order. It exists to demonstrate
// and smoke-test the deployment story end to end, not to be a production
// RPC stack.
#ifndef GCON_SERVE_SERVER_H_
#define GCON_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dp/budget_ledger.h"
#include "serve/batcher.h"
#include "serve/inference_session.h"
#include "obs/latency_stats.h"
#include "serve/router.h"

namespace gcon {

class InferenceServer {
 public:
  /// Single-model server: `session` becomes the router's only (default)
  /// entry, named "default".
  InferenceServer(InferenceSession session, ServeOptions options);

  /// Multi-model server: one named entry per published artifact,
  /// per-model queues/stats. Throws std::invalid_argument on an empty set
  /// or duplicate/unsafe names (see ModelRouter).
  ///
  /// Privacy accounting: every loaded artifact is charged against the
  /// budget ledger (options.budget_ledger; in-memory when empty) keyed by
  /// (population fingerprint, model name) — UNLESS the ledger's last
  /// committed release for that key is this very artifact, in which case
  /// the prior charge stands (a restart never re-spends, and never resets
  /// the total to the artifact's own epsilon). The gcon_dp_epsilon gauge
  /// is set to the ledger's charged total. Throws BudgetExhaustedError
  /// when a load would push a model past options.budget_cap.
  InferenceServer(std::vector<ModelRouter::NamedModel> models,
                  ServeOptions options);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Validates, routes by request.model, and enqueues (MicroBatcher::Submit
  /// says when the query runs). Throws std::invalid_argument on an unknown
  /// model or a request its session cannot serve, and ServeError on
  /// overload (the model's queue is at max_queue) or a draining server. A
  /// request carrying deadline_us may resolve with
  /// ServeError(kDeadlineExceeded) instead of a value.
  ServeFuture QueryAsync(ServeRequest request);

  /// Blocking convenience around QueryAsync: with no other traffic, the
  /// query's batch runs on the calling thread.
  ServeResponse Query(ServeRequest request);

  /// Atomic hot-swap: `session` becomes the new version of served model
  /// `name` ("" = the default model). In-flight batches finish against the
  /// version they snapshotted; later batches read the new one; no accepted
  /// query is dropped. Throws std::invalid_argument on an unknown name or
  /// a population (node count / feature dim) mismatch.
  ///
  /// Budget enforcement: the incoming epsilon is reserved from the ledger
  /// BEFORE the swap — ServeError(kBudgetExhausted) when options.budget_cap
  /// would be exceeded, with the old bits still serving — and committed
  /// only after the swap succeeds, so a publish that throws for any reason
  /// leaves both the ledger and the gauge untouched.
  void Publish(const std::string& name, InferenceSession session);

  /// The {"cmd": "publish"} verb: loads the artifact at `path` over the
  /// target model's own shared serving graph, hot-swaps it in, and returns
  /// the deterministic response line {"published": ..., metadata...,
  /// "epsilon": the release's charge, "epsilon_total": the model's charged
  /// total after it}. Throws (std::invalid_argument / std::runtime_error
  /// naming the path) on an unknown model, unreadable artifact, or
  /// population mismatch, and ServeError(kBudgetExhausted) on a refused
  /// over-cap publish — budget untouched in every failure case.
  std::string PublishFromFile(const std::string& name,
                              const std::string& path);

  /// Stops admitting queries — QueryAsync throws ServeError(kDraining) —
  /// while everything already accepted still resolves (when awaited, or
  /// at Drain). The {"cmd": "drain"} verb; the first half of Drain().
  void BeginDrain();

  /// Graceful shutdown: BeginDrain, then run every accepted query's batch
  /// on the calling thread (and wait out batches running elsewhere), so
  /// every accepted query resolves, awaited or not. `gcon_cli serve` calls
  /// this after SIGTERM so accepted queries are never dropped. Idempotent;
  /// destruction does it too.
  void Drain();

  /// The default model's session (the only one for single-model servers).
  const InferenceSession& session() const { return router_.session(0); }
  const ModelRouter& router() const { return router_; }
  const ServeOptions& options() const { return batcher_->options(); }

  /// Enqueue-to-completion latency across all completed queries of every
  /// model (merged histograms); the indexed form reads one model's.
  LatencyStats::Snapshot latency() const;
  LatencyStats::Snapshot latency(int model) const;
  /// Read from the per-model-name registry series (see
  /// obs::SetMetricsEnabled): another live server in the process that
  /// serves the same model name counts here too.
  std::uint64_t queries_served() const;
  std::uint64_t batches_run() const;

  /// Starts the counters and histograms of every model over from zero
  /// (call quiesced; see MicroBatcher::ResetCounters). The Prometheus
  /// series keep counting. Benches separate warm-up from the measured run
  /// with this.
  void ResetStats();

  /// {"queries": ..., "batches": ..., "mean_batch": ..., percentiles...,
  /// "models": [{"name": ..., per-model counters...}, ...]} — the stats
  /// line the wire protocol returns for {"cmd": "stats"}.
  std::string StatsJson() const;

  /// The {"cmd": "list_models"} response (ModelRouter::ListModelsJson).
  std::string ListModelsJson() const { return router_.ListModelsJson(); }

  /// The {"cmd": "budget"} response: one entry per model with the charged
  /// cumulative epsilon/delta, publish count, the configured cap
  /// ("remaining" present only when a cap is set), plus the ledger path
  /// and whether it is persistent. Deterministic field order, locked by
  /// the conformance goldens on both transports.
  std::string BudgetJson() const;

  /// The process-lifetime budget ledger backing this server's accounting.
  const BudgetLedger& budget_ledger() const { return *ledger_; }

  /// The `metrics` admin verb's body: refreshes the scrape-time queue
  /// depth/peak gauges and renders the global
  /// registry's Prometheus text exposition. Both transports answer with
  /// exactly this string.
  std::string MetricsText();

 private:
  /// Shared accounting path of Publish/PublishFromFile: reserve (throws
  /// the coded budget_exhausted rejection when over cap), swap, then
  /// commit-or-abort. Returns the model's charged epsilon total after the
  /// commit. `publish_mu_` serializes it so reserve order matches swap
  /// order and the gauge never regresses under concurrent publishes.
  double PublishAccounted(const std::string& target,
                          InferenceSession session);

  ModelRouter router_;
  /// Budget accounting (construction order matters: charged before the
  /// batcher starts accepting queries). model_fp_[m] is the serving
  /// population's fingerprint — the ledger key's graph half — fixed at
  /// construction because a swap never changes the population.
  std::unique_ptr<BudgetLedger> ledger_;
  std::vector<std::uint64_t> model_fp_;
  double budget_cap_ = 0.0;
  std::mutex publish_mu_;
  std::unique_ptr<MicroBatcher> batcher_;
};

/// Runs the TCP front end on 127.0.0.1:`port` (port 0 picks an ephemeral
/// port). Prints one "serving on 127.0.0.1:<port> ..." line to stderr once
/// the socket is listening — and publishes the bound port to *bound_port
/// when given, so in-process callers (tests) can connect to an ephemeral
/// port — then accepts until `shutdown` (when given) becomes true or the
/// process dies. Each connection's transport is sniffed from its first
/// byte: 0xC0 starts the binary frame handshake (serve/frame.h), anything
/// else is served line-by-line per serve/wire.h.
/// Robustness: transient accept failures (EINTR/ECONNABORTED, and
/// EMFILE/ENFILE-style exhaustion with doubling backoff) are logged and
/// survived, never fatal; every accepted socket gets
/// ServeOptions.io_timeout_ms read/write timeouts so a stalled client is
/// disconnected instead of pinning its thread; writes are SIGPIPE-safe.
/// When `shutdown` flips, every open connection stops reading (SHUT_RD),
/// answers the queries it already accepted and closes; returns 0 once all
/// have (callers then Drain() the server). Throws std::runtime_error on
/// socket setup failure (port in use, ...).
int RunTcpServer(InferenceServer* server, int port,
                 const std::atomic<bool>* shutdown = nullptr,
                 std::atomic<int>* bound_port = nullptr);

}  // namespace gcon

#endif  // GCON_SERVE_SERVER_H_
