#include "serve/batcher.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fault_injection.h"

namespace gcon {
namespace {

// A lull this long with no new arrival while a batch is filling means the
// burst is over: ship what we have instead of idling out the full deadline.
// Short on purpose — every microsecond spent hoping for stragglers is a
// microsecond every already-queued client waits.
constexpr std::chrono::microseconds kArrivalLull(5);

// The longest a lone query is held back for company, past its arrival.
constexpr std::chrono::microseconds kMaxWait(200);

[[noreturn]] void BadOption(const char* name, int value) {
  throw std::invalid_argument("serve option '" + std::string(name) +
                              "' must be >= 1 (got " + std::to_string(value) +
                              ")");
}

}  // namespace

void ServeOptions::Validate() const {
  if (threads < 1) BadOption("threads", threads);
  if (max_batch < 1) BadOption("max_batch", max_batch);
  if (max_queue < 0) {
    throw std::invalid_argument(
        "serve option 'max_queue' must be >= 0 (0 = unbounded; got " +
        std::to_string(max_queue) + ")");
  }
  if (io_timeout_ms < 1) BadOption("io_timeout_ms", io_timeout_ms);
  if (budget_cap < 0) {
    throw std::invalid_argument(
        "serve option 'budget_cap' must be >= 0 (0 = unlimited; got " +
        std::to_string(budget_cap) + ")");
  }
}

MicroBatcher::MicroBatcher(ServeOptions options, BatchHandler handler)
    : MicroBatcher(options, std::vector<BatchHandler>{std::move(handler)}) {}

MicroBatcher::MicroBatcher(ServeOptions options,
                           std::vector<BatchHandler> handlers,
                           std::vector<std::string> queue_labels)
    : options_(options) {
  options_.Validate();
  if (handlers.empty()) {
    throw std::invalid_argument("MicroBatcher needs at least one handler");
  }
  queues_.reserve(handlers.size());
  auto& registry = obs::MetricsRegistry::Global();
  for (BatchHandler& handler : handlers) {
    queues_.push_back(std::make_unique<Queue>(std::move(handler)));
    Queue& queue = *queues_.back();
    const std::size_t index = queues_.size() - 1;
    const std::string model = index < queue_labels.size()
                                  ? queue_labels[index]
                                  : "q" + std::to_string(index);
    QueueMetrics& m = queue.metrics;
    m.accepted = registry.counter("gcon_serve_accepted_total",
                                  "Queries admitted to a model queue.",
                                  {{"model", model}});
    const auto rejected = [&](ServeErrorCode code) {
      return registry.counter(
          "gcon_serve_rejected_total",
          "Queries rejected, by ServeError code.",
          {{"model", model}, {"code", ServeErrorCodeName(code)}});
    };
    m.rejected_overload = rejected(ServeErrorCode::kOverloaded);
    m.rejected_deadline = rejected(ServeErrorCode::kDeadlineExceeded);
    m.rejected_draining = rejected(ServeErrorCode::kDraining);
    m.depth = registry.gauge("gcon_serve_queue_depth",
                             "Currently pending queries per model queue.",
                             {{"model", model}});
    m.peak = registry.gauge(
        "gcon_serve_queue_peak",
        "High-water mark of the pending queue since the last stats reset.",
        {{"model", model}});
    m.batch_size = registry.histogram(
        "gcon_serve_batch_size",
        "Queries coalesced per handler call (batch-size distribution).",
        {{"model", model}});
    queue.base = Read(queue);
  }
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (int t = 0; t < options_.threads; ++t) {
    workers_.emplace_back(&MicroBatcher::WorkerMain, this);
  }
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    arrival_cv_.notify_all();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void MicroBatcher::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  // Wake any worker holding a lone query back for company: with admission
  // closed no company is coming, so ship what is queued now.
  arrival_cv_.notify_all();
}

void MicroBatcher::Drain() {
  BeginDrain();
  Stop();
}

std::future<ServeResponse> MicroBatcher::Submit(std::size_t queue,
                                                ServeRequest request) {
  GCON_CHECK_LT(queue, queues_.size());
  auto pending = std::make_unique<PendingQuery>();
  pending->request = std::move(request);
  pending->enqueued = std::chrono::steady_clock::now();
  if (pending->request.deadline_us != 0) {
    pending->has_deadline = true;
    pending->deadline =
        pending->enqueued +
        std::chrono::microseconds(pending->request.deadline_us);
  }
  std::future<ServeResponse> future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    Queue& target = *queues_[queue];
    if (stopping_ || draining_) {
      target.metrics.rejected_draining->Increment();
      throw ServeError(ServeErrorCode::kDraining,
                       "server draining; not accepting new queries");
    }
    // Admission control: reject rather than queue without bound. The
    // injected variant lets the chaos/conformance suites hit this path
    // deterministically without racing a real flood.
    const bool queue_full =
        options_.max_queue > 0 &&
        target.pending.size() >= static_cast<std::size_t>(options_.max_queue);
    if (queue_full ||
        FaultInjector::Global().ShouldFire(Fault::kQueueFull)) {
      target.metrics.rejected_overload->Increment();
      throw ServeError(ServeErrorCode::kOverloaded,
                       "model queue full (max_queue=" +
                           std::to_string(options_.max_queue) +
                           "); retry later");
    }
    if (pending->request.trace) {
      pending->request.trace->Stamp(obs::kMarkEnqueue);
    }
    target.pending.push_back(std::move(pending));
    ++total_pending_;
    if (target.pending.size() > target.queue_peak) {
      target.queue_peak = target.pending.size();
    }
  }
  // Outside the critical section: the relaxed add must not lengthen it.
  queues_[queue]->metrics.accepted->Increment();
  arrival_cv_.notify_one();
  return future;
}

MicroBatcher::Queue* MicroBatcher::TakeBatchLocked(
    std::unique_lock<std::mutex>* lock,
    std::vector<std::unique_ptr<PendingQuery>>* batch) {
  const std::size_t max_batch = static_cast<std::size_t>(options_.max_batch);
  for (;;) {
    // Bounded wait, not an indefinite one: glibc condvars before 2.38 can
    // lose a broadcast to a stolen wakeup (sourceware bug 25847), which
    // left an idle worker asleep through Stop()'s notify and hung a
    // SIGTERM drain until a second signal's spurious wake rescued it.
    // Rechecking the predicate every 50ms turns that lost wakeup into a
    // bounded delay; an idle worker waking 20x/s costs nothing.
    while (!(stopping_ || total_pending_ > 0)) {
      arrival_cv_.wait_for(*lock, std::chrono::milliseconds(50));
    }
    if (total_pending_ == 0) return nullptr;  // stopping and drained

    // FIFO across models: serve the queue whose head waited longest.
    Queue* queue = nullptr;
    for (auto& candidate : queues_) {
      if (candidate->pending.empty()) continue;
      if (queue == nullptr || candidate->pending.front()->enqueued <
                                  queue->pending.front()->enqueued) {
        queue = candidate.get();
      }
    }

    // An existing backlog already amortizes the batch overhead: ship it
    // now — delaying it only idles every queued client (a straggler wait
    // here measured as a 3x throughput LOSS under closed-loop load). Only
    // a lone query — lone across EVERY queue; pending work for another
    // model must not idle this worker — is worth holding back, briefly,
    // for company.
    if (total_pending_ == 1 && max_batch > 1 && !stopping_ && !draining_) {
      const auto deadline = queue->pending.front()->enqueued + kMaxWait;
      while (queue->pending.size() < max_batch && !stopping_ && !draining_ &&
             total_pending_ == queue->pending.size()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto step = std::min<std::chrono::steady_clock::duration>(
            deadline - now, kArrivalLull);
        const std::size_t before = total_pending_;
        arrival_cv_.wait_for(*lock, step);
        if (total_pending_ <= before) break;  // lull — ship what we have
      }
    }
    if (queue->pending.empty()) continue;  // a peer worker took the backlog

    const std::size_t take = std::min(queue->pending.size(), max_batch);
    batch->clear();
    batch->reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(queue->pending.front()));
      queue->pending.pop_front();
    }
    total_pending_ -= take;
    if (total_pending_ > 0) {
      // Leftovers (this queue's or another's) belong to a peer; wake one.
      arrival_cv_.notify_one();
    }
    return queue;
  }
}

void MicroBatcher::WorkerMain() {
  for (;;) {
    std::vector<std::unique_ptr<PendingQuery>> batch;
    Queue* queue = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue = TakeBatchLocked(&lock, &batch);
      if (queue == nullptr) return;
    }
    for (const auto& p : batch) {
      if (p->request.trace) p->request.trace->Stamp(obs::kMarkBatchForm);
    }

    // Chaos site: a stalled handler (lock contention, page fault storm,
    // a slow downstream) delays execution past queued deadlines — the
    // sleep sits before the deadline check so injected slowness expires
    // deadlined queries exactly like real slowness would.
    FaultInjector::Global().MaybeSleepSlowHandler();

    // Drop expired queries now, immediately before the GEMM: their
    // clients have given up, so spending batch rows on them only delays
    // everyone still waiting. Their futures resolve with a structured
    // deadline_exceeded error, never silence.
    std::vector<std::unique_ptr<PendingQuery>> expired;
    {
      bool any_deadline = false;
      for (const auto& p : batch) any_deadline |= p->has_deadline;
      if (any_deadline) {
        const auto now = std::chrono::steady_clock::now();
        std::size_t keep = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i]->has_deadline && now >= batch[i]->deadline) {
            expired.push_back(std::move(batch[i]));
          } else {
            if (keep != i) batch[keep] = std::move(batch[i]);
            ++keep;
          }
        }
        batch.resize(keep);
      }
    }
    if (!expired.empty()) {
      queue->metrics.rejected_deadline->Increment(expired.size());
    }
    if (!batch.empty()) {
      queue->metrics.batch_size->Observe(static_cast<double>(batch.size()));
    }
    for (auto& p : expired) {
      p->promise.set_exception(std::make_exception_ptr(
          ServeError(ServeErrorCode::kDeadlineExceeded,
                     "query deadline expired before execution")));
    }
    if (batch.empty()) continue;

    std::vector<PendingQuery*> views;
    views.reserve(batch.size());
    for (auto& p : batch) views.push_back(p.get());
    try {
      if (FaultInjector::Global().ShouldFire(Fault::kMidBatchThrow)) {
        throw std::runtime_error("injected mid-batch fault");
      }
      queue->handler(views);
      const auto done = std::chrono::steady_clock::now();
      for (auto& p : batch) {
        p->response.id = p->request.id;
        p->response.node = p->request.node;
        p->response.latency_us =
            std::chrono::duration<double, std::micro>(done - p->enqueued)
                .count();
        queue->latency.Record(p->response.latency_us);
        p->promise.set_value(std::move(p->response));
      }
    } catch (...) {
      // Validation happens at Submit, so this is a handler bug or OOM:
      // surface it on every affected query instead of hanging the futures.
      const std::exception_ptr error = std::current_exception();
      for (auto& p : batch) {
        p->promise.set_exception(error);
      }
    }
  }
}

void MicroBatcher::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& queue : queues_) {
    queue->base = Read(*queue);
    queue->queue_peak = 0;
    queue->latency.Reset();
  }
}

void MicroBatcher::RefreshObsMetrics() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& queue : queues_) {
    queue->metrics.depth->Set(static_cast<double>(queue->pending.size()));
    queue->metrics.peak->Set(static_cast<double>(queue->queue_peak));
  }
}

const LatencyStats& MicroBatcher::latency(std::size_t queue) const {
  GCON_CHECK_LT(queue, queues_.size());
  return queues_[queue]->latency;
}

MicroBatcher::Counts MicroBatcher::Read(const Queue& queue) {
  const LatencyStats& batch_sizes = queue.metrics.batch_size->stats();
  return {batch_sizes.SumUs(), batch_sizes.TotalCount(),
          queue.metrics.rejected_overload->value(),
          queue.metrics.rejected_deadline->value()};
}

MicroBatcher::Counts MicroBatcher::CountsSinceBase(std::size_t queue) const {
  GCON_CHECK_LT(queue, queues_.size());
  const Queue& q = *queues_[queue];
  Counts base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    base = q.base;
  }
  const Counts now = Read(q);
  return {now.queries - base.queries, now.batches - base.batches,
          now.rejected_overload - base.rejected_overload,
          now.rejected_deadline - base.rejected_deadline};
}

std::uint64_t MicroBatcher::Total(std::uint64_t Counts::*field) const {
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    total += CountsSinceBase(q).*field;
  }
  return total;
}

std::uint64_t MicroBatcher::queue_peak(std::size_t queue) const {
  GCON_CHECK_LT(queue, queues_.size());
  std::lock_guard<std::mutex> lock(mu_);
  return queues_[queue]->queue_peak;
}

}  // namespace gcon
