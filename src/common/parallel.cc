#include "common/parallel.h"

#include <exception>

namespace gcon {
namespace {

// True while the current thread is executing inside a WorkerPool job
// (as the caller or as a pool worker). A nested Run on such a thread runs
// inline without touching job_mu_: the outer job may hold it on this very
// thread, and try_lock on a mutex the thread owns is undefined.
thread_local bool t_inside_pool_job = false;

}  // namespace

int ResolveThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkerPool& WorkerPool::Global() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

int WorkerPool::resident_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void WorkerPool::EnsureWorkersLocked(int needed) {
  while (static_cast<int>(workers_.size()) < needed) {
    workers_.emplace_back(&WorkerPool::WorkerMain, this);
  }
}

void WorkerPool::Drain(int n, const std::function<void(int)>& fn) {
  while (!failed_.load(std::memory_order_acquire)) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
      return;
    }
  }
}

void WorkerPool::WorkerMain() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    if (!open_ || claimed_ >= max_claims_) continue;
    ++claimed_;
    ++active_;
    const int n = n_;
    const std::function<void(int)>* fn = fn_;
    lock.unlock();
    t_inside_pool_job = true;
    Drain(n, *fn);
    t_inside_pool_job = false;
    lock.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::Run(int n, int threads, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (threads > n) threads = n;
  // Inline, in order: the sequential degeneration, the nested case (see
  // t_inside_pool_job; the || keeps try_lock off a mutex this thread may
  // own), and a pool busy with another caller's job, which this caller
  // must not wait for.
  std::unique_lock<std::mutex> job_lock(job_mu_, std::defer_lock);
  if (threads <= 1 || t_inside_pool_job || !job_lock.try_lock()) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureWorkersLocked(threads - 1);
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = nullptr;
    claimed_ = 0;
    active_ = 0;
    max_claims_ = threads - 1;
    open_ = true;
    ++generation_;
    work_cv_.notify_all();
  }

  t_inside_pool_job = true;
  Drain(n, fn);
  t_inside_pool_job = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = false;  // late-waking workers must not claim a finished job
    done_cv_.wait(lock, [&] { return active_ == 0; });
    fn_ = nullptr;
    error = first_error_;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ParallelFor(int n, int threads, const std::function<void(int)>& fn) {
  WorkerPool::Global().Run(n, ResolveThreads(threads), fn);
}

void ParallelBlocks(int blocks, std::int64_t work,
                    const std::function<void(int)>& block) {
  // One thread runs the blocks inline, in order; 0 is the hardware count.
  ParallelFor(blocks, work < kParallelMinWork ? 1 : 0, block);
}

}  // namespace gcon
