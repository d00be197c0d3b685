// The process's one thread runtime: a deterministic worker pool for the
// linalg/sparse kernels, the embarrassingly parallel experiment loops, and
// long-lived serving workers.
//
// Kernels split a product into fixed blocks and hand them to
// ParallelBlocks, which alone decides inline or pool. Each output element
// belongs to one block, so results are bitwise identical either way.
//
// The repeat/sweep drivers (RunMethodRepeated, the bench_fig1/bench_table2
// cell loops, the epsilon_sweep example) execute many independent units of
// work — one per run or per (method, epsilon) cell — whose outputs land in
// preassigned slots. ParallelFor fans those indices out across the
// process-wide WorkerPool: workers pull indices from a shared atomic
// counter, so the schedule is dynamic but the *outputs* are
// schedule-independent as long as fn(i) writes only to slot i (each unit
// derives its own Rng from base_seed + i and owns its model instance).
// threads <= 1 degenerates to the plain sequential loop, in index order.
//
// The pool threads are persistent: they are spawned on first use (growing
// on demand up to the largest concurrency ever requested) and parked on a
// condition variable between jobs, so back-to-back jobs pay a wakeup
// instead of a thread spawn. (The serving tier's batch workers in
// src/serve/batcher.h are separately resident — they park on the request
// queue, a different wait discipline.)
//
// Exceptions: the first exception thrown by any fn(i) is captured, the
// remaining indices are abandoned, the job is drained, and the exception
// is rethrown on the calling thread — same observable contract as the
// sequential loop, minus which index got to throw first.
#ifndef GCON_COMMON_PARALLEL_H_
#define GCON_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gcon {

/// Worker count to actually use for a requested thread count: values >= 1
/// pass through, 0 (and negatives) mean "one per hardware thread".
int ResolveThreads(int requested);

/// A pool of resident worker threads executing fork-join index jobs.
/// One job runs at a time. A Run that finds the pool busy — another
/// caller's job, or its own enclosing job — executes its indices inline, in
/// order, instead of waiting. So a kernel on a batcher worker, a connection
/// thread or inside a ParallelFor unit never waits on another caller and
/// never multiplies the thread count, and nested ParallelFor is safe.
class WorkerPool {
 public:
  /// The process-wide pool every ParallelFor shares.
  static WorkerPool& Global();

  WorkerPool() = default;
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Executes fn(i) for every i in [0, n) with total concurrency
  /// min(threads, n): the calling thread participates and up to threads-1
  /// resident workers join it. Blocks until every claimed index finished;
  /// rethrows the first exception thrown by any fn(i).
  void Run(int n, int threads, const std::function<void(int)>& fn);

  /// Resident worker threads spawned so far (diagnostics/tests).
  int resident_workers() const;

 private:
  void EnsureWorkersLocked(int needed);
  void WorkerMain();
  /// Pulls indices from next_ and runs fn until exhausted or failed.
  void Drain(int n, const std::function<void(int)>& fn);

  /// Held by the caller whose job owns the pool (one job at a time).
  std::mutex job_mu_;

  /// Guards the job fields and worker bookkeeping below.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers park here between jobs
  std::condition_variable done_cv_;  ///< Run waits here for claimed workers
  std::uint64_t generation_ = 0;     ///< bumped once per job
  bool open_ = false;                ///< job still accepting claimants
  int max_claims_ = 0;               ///< workers allowed on this job
  int claimed_ = 0;
  int active_ = 0;                   ///< workers currently draining
  int n_ = 0;
  const std::function<void(int)>* fn_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::atomic<int> next_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// Executes fn(i) for every i in [0, n), fanning the indices out across
/// `threads` workers of WorkerPool::Global() (the calling thread
/// participates, so `threads` is the total concurrency). fn must be safe to
/// call concurrently from distinct threads for distinct indices and must
/// write only to per-index state. threads <= 1 (after ResolveThreads) runs
/// inline in index order.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

/// Work, in inner-loop element operations (multiply-adds for products,
/// element copies for Transpose), below which a kernel call runs inline.
/// Measured pool vs inline on back-to-back calls, 4-vCPU 2 GHz AVX2 Xeon,
/// gcc 12.2 Release: one GEMM k-slab is 0.7x at 2^17, 1.3x at 2^18 and
/// 1.5-2.5x from 2^20 (BM_DenseGemm/256 and the 2,879-row
/// BM_EncoderLayer0Dense/*/1 gradient are far above); SpMM is 1.4x at
/// 2^16 and 1.8-2.5x from 2^18.
inline constexpr std::int64_t kParallelMinWork = 1 << 18;

/// The kernels' entry point: runs block(i) for every i in [0, blocks),
/// inline in index order when `work` is below kParallelMinWork, otherwise
/// as ParallelFor at ResolveThreads(0). A block must write only output no
/// other block writes.
void ParallelBlocks(int blocks, std::int64_t work,
                    const std::function<void(int)>& block);

}  // namespace gcon

#endif  // GCON_COMMON_PARALLEL_H_
