#include "serve/batcher.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fault_injection.h"

namespace gcon {
namespace {

[[noreturn]] void BadOption(const char* name, int value) {
  throw std::invalid_argument("serve option '" + std::string(name) +
                              "' must be >= 1 (got " + std::to_string(value) +
                              ")");
}

}  // namespace

void ServeOptions::Validate() const {
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
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Stop() {
  BeginDrain();
  Combine(nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return combiners_ == 0; });
}

void MicroBatcher::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

ServeFuture MicroBatcher::Submit(std::size_t queue, ServeRequest request) {
  GCON_CHECK_LT(queue, queues_.size());
  auto pending = std::make_shared<PendingQuery>();
  pending->request = std::move(request);
  pending->enqueued = std::chrono::steady_clock::now();
  if (pending->request.deadline_us != 0) {
    pending->has_deadline = true;
    pending->deadline =
        pending->enqueued +
        std::chrono::microseconds(pending->request.deadline_us);
  }
  ServeFuture future(this, pending);
  {
    std::lock_guard<std::mutex> lock(mu_);
    Queue& target = *queues_[queue];
    if (draining_) {
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
  return future;
}

ServeResponse ServeFuture::get() {
  const std::shared_ptr<PendingQuery> query = std::move(query_);
  if (!query->done.load(std::memory_order_acquire)) {
    batcher_->Combine(query.get());
  }
  if (query->error) std::rethrow_exception(query->error);
  return std::move(query->response);
}

void MicroBatcher::Combine(PendingQuery* query) {
  std::unique_lock<std::mutex> lock(mu_);
  ++combiners_;
  // `done` is only set under mu_, so this read cannot miss the wakeup.
  while (query != nullptr ? !query->done.load(std::memory_order_relaxed)
                          : total_pending_ > 0) {
    if (total_pending_ == 0) {
      // Everything queued is already running on other threads, `query`
      // included: wait for its batch.
      query->answered.wait(lock);
      continue;
    }
    Batch batch;
    Queue* queue = TakeBatchLocked(&batch);
    lock.unlock();
    RunBatch(queue, &batch);
    batch.clear();  // frees answered queries (and their frame pins) unlocked
    lock.lock();
  }
  // Notified under the lock: once combiners_ reads 0, Stop may return and
  // the batcher be destroyed, so nothing may touch it after the unlock.
  if (--combiners_ == 0) idle_.notify_all();
}

MicroBatcher::Queue* MicroBatcher::TakeBatchLocked(Batch* batch) {
  // FIFO across models: serve the queue whose head waited longest.
  Queue* queue = nullptr;
  for (auto& candidate : queues_) {
    if (candidate->pending.empty()) continue;
    if (queue == nullptr || candidate->pending.front()->enqueued <
                                queue->pending.front()->enqueued) {
      queue = candidate.get();
    }
  }
  const auto take = static_cast<std::ptrdiff_t>(std::min(
      queue->pending.size(), static_cast<std::size_t>(options_.max_batch)));
  const auto first = queue->pending.begin();
  batch->assign(std::make_move_iterator(first),
                std::make_move_iterator(first + take));
  queue->pending.erase(first, first + take);
  total_pending_ -= batch->size();
  return queue;
}

void MicroBatcher::RunBatch(Queue* queue, Batch* batch) {
  for (const auto& p : *batch) {
    if (p->request.trace) p->request.trace->Stamp(obs::kMarkBatchForm);
  }

  // Chaos site: a stalled handler (lock contention, page fault storm,
  // a slow downstream) delays execution past queued deadlines — the
  // sleep sits before the deadline check so injected slowness expires
  // deadlined queries exactly like real slowness would.
  FaultInjector::Global().MaybeSleepSlowHandler();

  // Drop expired queries now, immediately before the GEMM: their clients
  // have given up, so spending batch rows on them only delays everyone
  // still waiting. They resolve with a structured deadline_exceeded
  // error, never silence.
  std::vector<PendingQuery*> live;
  live.reserve(batch->size());
  const auto now = std::chrono::steady_clock::now();
  for (const auto& p : *batch) {
    if (p->has_deadline && now >= p->deadline) {
      p->error = std::make_exception_ptr(
          ServeError(ServeErrorCode::kDeadlineExceeded,
                     "query deadline expired before execution"));
    } else {
      live.push_back(p.get());
    }
  }
  if (live.size() < batch->size()) {
    queue->metrics.rejected_deadline->Increment(batch->size() - live.size());
  }
  if (!live.empty()) {
    queue->metrics.batch_size->Observe(static_cast<double>(live.size()));
    try {
      if (FaultInjector::Global().ShouldFire(Fault::kMidBatchThrow)) {
        throw std::runtime_error("injected mid-batch fault");
      }
      queue->handler(live);
      const auto done = std::chrono::steady_clock::now();
      for (PendingQuery* p : live) {
        p->response.id = p->request.id;
        p->response.node = p->request.node;
        p->response.latency_us =
            std::chrono::duration<double, std::micro>(done - p->enqueued)
                .count();
        queue->latency.Record(p->response.latency_us);
      }
    } catch (...) {
      // Validation happens at Submit, so this is a handler bug or OOM:
      // surface it on every affected query instead of hanging its waiter.
      const std::exception_ptr error = std::current_exception();
      for (PendingQuery* p : live) p->error = error;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& p : *batch) p->done.store(true, std::memory_order_release);
  }
  // The batch still owns its queries, so their waiters can be woken
  // outside the lock, where a woken waiter does not block on it again.
  for (const auto& p : *batch) p->answered.notify_one();
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
