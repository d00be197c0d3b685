// Micro-batching request queue for the inference server.
//
// Clients submit single-node queries; the batcher coalesces them into
// blocks of up to `max_batch` and hands each block to one handler call
// (one gather + one GEMM in the server). The batcher has no threads of
// its own: it is flat-combining (Hendler, Incze, Shavit and Tzafrir, SPAA
// 2010). A thread whose answer is not ready yet (ServeFuture::get) takes
// the oldest pending batch itself — everything queued for one model, up
// to max_batch — runs it outside the lock, wakes that batch's waiters
// once, and repeats until its own answer is in. Several waiters may run
// batches at once. Nothing is held back for company: a lone query runs at
// once on the thread that asked for it, and under load the queue refills
// while a batch computes, so batches form from whatever queued meanwhile.
// A pipelined client that submits a burst before it waits gets the burst
// back as one batch.
//
// Multi-queue mode (the multi-model server): the batcher hosts N queues,
// one per handler — per-model pending deque, counters, and latency
// histogram — under one lock. A batch never mixes queues (each model's
// GEMM needs its own session); a combiner takes from whichever queue has
// the oldest waiting query. A single-queue batcher is the same with N = 1.
//
// Because the session's per-row results are independent of batch
// composition (see inference_session.h), the nondeterministic coalescing
// schedule is invisible in the responses — batching changes throughput and
// latency, never bits.
#ifndef GCON_SERVE_BATCHER_H_
#define GCON_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_session.h"
#include "obs/latency_stats.h"
#include "serve/serve_error.h"

namespace gcon {

/// Serving knobs, shared by the in-process API, the CLI, and the bench.
struct ServeOptions {
  int max_batch = 32;  ///< queries coalesced into one handler call
  /// Admission control: per-model pending-queue cap. A Submit against a
  /// full queue throws ServeError(kOverloaded) instead of growing the
  /// queue without bound. 0 = unbounded (the pre-robustness behavior).
  int max_queue = 0;
  /// TCP front end: per-connection read/write timeout. A client that
  /// stalls (sends nothing, or stops reading its responses) past this is
  /// disconnected instead of pinning its connection thread forever.
  int io_timeout_ms = 30000;
  /// Path of the persistent privacy-budget ledger (dp/budget_ledger.h).
  /// Empty (the default) keeps the accounting in-memory: same
  /// reserve/commit arithmetic and cap enforcement, nothing survives the
  /// process. With a path, cumulative per-model epsilon survives restarts
  /// and the gcon_dp_epsilon gauge is RESTORED from the ledger, never
  /// reset from the artifact's own receipt.
  std::string budget_ledger;
  /// Cumulative-epsilon cap per (population, model): a publish (or startup
  /// artifact load) that would push the charged total past this is refused
  /// with a coded "budget_exhausted" error and the served bits stay on the
  /// old artifact. 0 (the default) = unlimited.
  double budget_cap = 0.0;

  /// Throws std::invalid_argument naming the offending knob when a value
  /// is out of range (mirrors the CLI's strict flag validation).
  void Validate() const;
};

/// A submitted query awaiting its batch.
struct PendingQuery {
  ServeRequest request;
  ServeResponse response;
  std::chrono::steady_clock::time_point enqueued;
  /// enqueued + request.deadline_us when the request carries a deadline
  /// (has_deadline), else unset.
  std::chrono::steady_clock::time_point deadline;
  bool has_deadline = false;
  /// Set when the query is not answered: its deadline expired, or its
  /// batch's handler threw.
  std::exception_ptr error;
  /// Set (release, under the batcher's lock) once the batch holding this
  /// query has run, after `response` or `error` is written; never reset.
  std::atomic<bool> done{false};
  /// Notified once `done` is set: wakes the thread awaiting this query
  /// while another thread runs its batch, and no other. One waiter, one
  /// notify: the glibc lost wakeup (sourceware bug 25847) needs several
  /// waiters on one condition variable.
  std::condition_variable answered;
};

class MicroBatcher;

/// The answer to one accepted query. get() combines: while the answer is
/// not ready it runs pending batches on the calling thread (see the top of
/// this file). Move-only, because get() moves the answer out.
class ServeFuture {
 public:
  ServeFuture() = default;
  ServeFuture(ServeFuture&&) = default;
  ServeFuture& operator=(ServeFuture&&) = default;

  /// Returns the response, or rethrows the query's error (a
  /// ServeError(kDeadlineExceeded), or the handler's exception). Until the
  /// query's batch has run, runs pending batches or waits for the ones
  /// other threads run. Call once. A resolved query — every one is by the
  /// time MicroBatcher::Stop returns — no longer needs its batcher.
  ServeResponse get();

 private:
  friend class MicroBatcher;
  ServeFuture(MicroBatcher* batcher, std::shared_ptr<PendingQuery> query)
      : batcher_(batcher), query_(std::move(query)) {}

  MicroBatcher* batcher_ = nullptr;
  std::shared_ptr<PendingQuery> query_;
};

class MicroBatcher {
 public:
  /// Fills response (label/logits) for every pending query in the batch;
  /// runs on whichever waiting thread took the batch. Must not throw for
  /// valid requests — requests are validated at Submit time — but if it
  /// does, every query in the batch receives the exception.
  using BatchHandler = std::function<void(std::vector<PendingQuery*>&)>;

  /// Single-queue batcher: validates `options`.
  MicroBatcher(ServeOptions options, BatchHandler handler);

  /// Multi-queue batcher: one queue per handler (at least one).
  /// `queue_labels` names the queues in the metrics registry (the server
  /// passes model names); queues past the end of the list fall back to
  /// "q<i>". The batcher owns the serving-tier metrics — accepts,
  /// rejections by ServeError code, queue depth/peak, batch-size
  /// distribution — because it owns the admission and batch-formation
  /// sites those metrics describe.
  MicroBatcher(ServeOptions options, std::vector<BatchHandler> handlers,
               std::vector<std::string> queue_labels = {});

  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one query on `queue` (the one-argument form: queue 0). It
  /// runs only when some thread awaits a query (or at Stop), so a caller
  /// refused with kOverloaded must await what it has in flight before it
  /// retries; there is no poll that makes progress.
  ServeFuture Submit(ServeRequest request) {
    return Submit(0, std::move(request));
  }
  ServeFuture Submit(std::size_t queue, ServeRequest request);

  /// Graceful shutdown: stops admitting (as BeginDrain), runs every queued
  /// batch on the calling thread, and waits until no thread is in Combine
  /// (running a batch or waiting in ServeFuture::get). Every accepted query
  /// has resolved (value or structured error) when it returns, awaited or
  /// not. Submissions after it fail with ServeError(kDraining) (a
  /// std::runtime_error). Idempotent; the destructor calls it.
  void Stop();

  /// Stops admitting (Submit throws ServeError(kDraining)) while queries
  /// already queued still resolve, when awaited or at Stop — the first
  /// half of a graceful shutdown. Idempotent.
  void BeginDrain();

  /// Enqueue-to-completion latency of every completed query on `queue`.
  const LatencyStats& latency(std::size_t queue = 0) const;

  /// Starts the query/batch/rejection counters, queue peaks and latency
  /// histograms of every queue over from zero. The counters are the
  /// Prometheus-monotonic registry series, which never go backwards: this
  /// snapshots them as the base the accessors subtract. Call quiesced (no
  /// in-flight queries) — benches use it to drop warm-up traffic from the
  /// reported numbers.
  void ResetCounters();

  /// Sets the queue-depth and queue-peak gauges from the pending queues.
  /// The `metrics` admin verb calls this before rendering; every counter
  /// series is already live.
  void RefreshObsMetrics();

  std::size_t num_queues() const { return queues_.size(); }
  /// Aggregates across every queue, since construction or the last
  /// ResetCounters. They read the registry series, so they pause while
  /// obs::SetMetricsEnabled(false) is in force.
  std::uint64_t queries_served() const { return Total(&Counts::queries); }
  std::uint64_t batches_run() const { return Total(&Counts::batches); }
  std::uint64_t rejected_overload() const {
    return Total(&Counts::rejected_overload);
  }
  std::uint64_t rejected_deadline() const {
    return Total(&Counts::rejected_deadline);
  }
  /// Per-queue counters.
  std::uint64_t queries_served(std::size_t queue) const {
    return CountsSinceBase(queue).queries;
  }
  std::uint64_t batches_run(std::size_t queue) const {
    return CountsSinceBase(queue).batches;
  }
  /// Submissions refused because the queue was at max_queue.
  std::uint64_t rejected_overload(std::size_t queue) const {
    return CountsSinceBase(queue).rejected_overload;
  }
  /// Accepted queries dropped in queue when their deadline passed.
  std::uint64_t rejected_deadline(std::size_t queue) const {
    return CountsSinceBase(queue).rejected_deadline;
  }
  /// High-water mark of the pending queue since the last ResetCounters —
  /// the observable bound admission control promises.
  std::uint64_t queue_peak(std::size_t queue) const;
  const ServeOptions& options() const { return options_; }

 private:
  /// Registry handles for one queue, fetched once at construction. The
  /// counters and the batch-size histogram (count = batches, sum = queries)
  /// are updated live and are the only copy of those numbers; `depth` and
  /// `peak` are set by RefreshObsMetrics (scrape time).
  struct QueueMetrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* rejected_overload = nullptr;
    obs::Counter* rejected_deadline = nullptr;
    obs::Counter* rejected_draining = nullptr;
    obs::Gauge* depth = nullptr;
    obs::Gauge* peak = nullptr;
    obs::Histogram* batch_size = nullptr;
  };

  /// The stats-visible counters of one queue, read from its registry
  /// series.
  struct Counts {
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
  };

  /// One model's lane: its pending deque, registry handles, and latency
  /// histogram. The handler and the handles are fixed at construction;
  /// `pending`, `queue_peak` and `base` are guarded by mu_ (the
  /// LatencyStats is internally lock-free).
  struct Queue {
    explicit Queue(BatchHandler h) : handler(std::move(h)) {}
    BatchHandler handler;
    std::deque<std::shared_ptr<PendingQuery>> pending;
    std::uint64_t queue_peak = 0;
    /// Registry readings at construction or the last ResetCounters. The
    /// series are process-global per model label, so a later server with
    /// the same model name starts from here, not from zero.
    Counts base;
    LatencyStats latency;
    QueueMetrics metrics;
  };

  /// The registry series of `queue` now (no base subtracted).
  static Counts Read(const Queue& queue);
  /// `queue`'s counters since its base.
  Counts CountsSinceBase(std::size_t queue) const;
  /// Sum of one Counts field across every queue.
  std::uint64_t Total(std::uint64_t Counts::*field) const;

  friend class ServeFuture;
  using Batch = std::vector<std::shared_ptr<PendingQuery>>;

  /// Runs batches on the calling thread until `query` has resolved, or,
  /// when `query` is null, until no batch is queued. Waits for other
  /// threads' batches when nothing is queued.
  void Combine(PendingQuery* query);
  /// Moves up to max_batch queries from the head of the queue whose head
  /// waited longest into *batch; returns it. Needs mu_ and a pending query.
  Queue* TakeBatchLocked(Batch* batch);
  /// The batch body, outside the lock: trace stamp, slow-handler site,
  /// deadline drop, handler, latency record; then marks every query in
  /// the batch done and wakes the waiters.
  void RunBatch(Queue* queue, Batch* batch);

  ServeOptions options_;

  mutable std::mutex mu_;
  /// Notified when the last thread leaves Combine, for Stop.
  std::condition_variable idle_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::size_t total_pending_ = 0;
  /// Threads inside Combine: each may still lock mu_, so Stop waits for 0.
  std::size_t combiners_ = 0;
  bool draining_ = false;
};

}  // namespace gcon

#endif  // GCON_SERVE_BATCHER_H_
