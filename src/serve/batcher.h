// Micro-batching request queue for the inference server.
//
// Clients submit single-node queries; persistent batch workers coalesce
// them into blocks of up to `max_batch` and hand each block to one handler
// call (one gather + one GEMM in the server). Coalescing policy:
//
//   * a worker that finds requests queued takes up to max_batch of them;
//   * a lone pending query is held back briefly for company — never beyond
//     200 us past its arrival (kMaxWait in batcher.cc), and given up as
//     soon as an arrival lull (a few microseconds, kArrivalLull) suggests
//     no one else is coming. An existing backlog ships immediately: under load the
//     queue refills while the previous batch computes, so batches form
//     naturally and the deadline is a latency bound, not a throughput tax.
//
// Multi-queue mode (the multi-model server): the batcher hosts N queues,
// one per handler — per-model pending deque, counters, and latency
// histogram — behind ONE shared pool of resident workers. A batch never
// mixes queues (each model's GEMM needs its own session), workers drain
// whichever queue has the oldest waiting query, and the lone-query
// hold-back applies only when that query is the only one pending anywhere
// (work queued for another model must not idle a worker). A single-queue
// batcher is exactly the old behavior.
//
// Because the session's per-row results are independent of batch
// composition (see inference_session.h), the nondeterministic coalescing
// schedule is invisible in the responses — batching changes throughput and
// latency, never bits.
//
// Workers are resident threads (spawned in the constructor, parked on the
// queue's condition variable, joined in Stop) — the serving tier never pays
// a thread spawn per request, per batch, or per model.
#ifndef GCON_SERVE_BATCHER_H_
#define GCON_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_session.h"
#include "obs/latency_stats.h"
#include "serve/serve_error.h"

namespace gcon {

/// Serving knobs, shared by the in-process API, the CLI, and the bench.
struct ServeOptions {
  int threads = 1;       ///< batch worker threads (shared across queues)
  int max_batch = 32;    ///< queries coalesced into one handler call
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
  std::promise<ServeResponse> promise;
};

class MicroBatcher {
 public:
  /// Fills response (label/logits) for every pending query in the batch;
  /// runs on a batch worker thread. Must not throw for valid requests —
  /// requests are validated at Submit time — but if it does, every query in
  /// the batch receives the exception.
  using BatchHandler = std::function<void(std::vector<PendingQuery*>&)>;

  /// Single-queue batcher: validates `options` and starts options.threads
  /// resident workers over one queue.
  MicroBatcher(ServeOptions options, BatchHandler handler);

  /// Multi-queue batcher: one queue per handler (at least one), all served
  /// by the same options.threads resident workers. `queue_labels` names the
  /// queues in the metrics registry (the server passes model names); queues
  /// past the end of the list fall back to "q<i>". The batcher owns the
  /// serving-tier metrics — accepts, rejections by ServeError code, queue
  /// depth/peak, batch-size distribution — because it owns the admission
  /// and batch-formation sites those metrics describe.
  MicroBatcher(ServeOptions options, std::vector<BatchHandler> handlers,
               std::vector<std::string> queue_labels = {});

  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one query on `queue`; the future resolves when its batch
  /// completes. The single-argument form targets queue 0.
  std::future<ServeResponse> Submit(ServeRequest request) {
    return Submit(0, std::move(request));
  }
  std::future<ServeResponse> Submit(std::size_t queue, ServeRequest request);

  /// Drains every queue and joins the workers. Submissions after Stop fail
  /// with ServeError(kDraining) (a std::runtime_error). Idempotent.
  void Stop();

  /// Stops admitting (Submit throws ServeError(kDraining)) while already-
  /// queued work keeps completing — the first half of a graceful shutdown.
  /// Idempotent; Stop() still joins the workers afterwards.
  void BeginDrain();

  /// Graceful shutdown: BeginDrain, then Stop. Every query accepted before
  /// the drain began resolves (value or structured error); none is dropped.
  void Drain();

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
    std::deque<std::unique_ptr<PendingQuery>> pending;
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

  void WorkerMain();
  /// Pops the next batch into *batch and returns its queue (caller holds
  /// lock on entry/exit); nullptr means "stopping and drained".
  Queue* TakeBatchLocked(std::unique_lock<std::mutex>* lock,
                         std::vector<std::unique_ptr<PendingQuery>>* batch);

  ServeOptions options_;

  mutable std::mutex mu_;
  std::condition_variable arrival_cv_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::size_t total_pending_ = 0;
  bool stopping_ = false;
  bool draining_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace gcon

#endif  // GCON_SERVE_BATCHER_H_
