// ParallelFor: index coverage, schedule-independent slot writes, inline
// degeneration, thread-count resolution, and exception propagation.
// WorkerPool: a busy pool never makes a second caller wait. The kernels on
// the pool (ParallelBlocks): the same bits on the pool, inline, and from
// concurrent callers, on both sides of kParallelMinWork.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "linalg/gemm_kernels.h"
#include "linalg/ops.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

TEST(ResolveThreads, PassesPositiveThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  const int resolved = ResolveThreads(0);
  EXPECT_GE(resolved, 1);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, static_cast<int>(hw));
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 9}) {
    const int n = 37;
    std::vector<std::atomic<int>> visits(static_cast<std::size_t>(n));
    for (auto& v : visits) v.store(0);
    ParallelFor(n, threads, [&](int i) {
      visits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, SlotOutputsAreScheduleIndependent) {
  const int n = 64;
  std::vector<int> sequential(static_cast<std::size_t>(n));
  std::vector<int> parallel(static_cast<std::size_t>(n));
  auto fill = [](std::vector<int>* out) {
    return [out](int i) { (*out)[static_cast<std::size_t>(i)] = i * i + 3; };
  };
  ParallelFor(n, 1, fill(&sequential));
  ParallelFor(n, 5, fill(&parallel));
  EXPECT_EQ(sequential, parallel);
}

TEST(ParallelFor, SequentialRunsInIndexOrder) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoOps) {
  int calls = 0;
  ParallelFor(0, 4, [&](int) { ++calls; });
  ParallelFor(-3, 4, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  std::atomic<int> sum{0};
  ParallelFor(3, 16, [&](int i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ParallelFor, RethrowsFirstExceptionOnCaller) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        ParallelFor(32, threads,
                    [](int i) {
                      if (i == 7) throw std::runtime_error("boom");
                    }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ParallelFor, AbandonsRemainingWorkAfterException) {
  // With one worker the remaining indices must not run after the throw;
  // with several, only indices already claimed may still finish.
  std::atomic<int> ran{0};
  try {
    ParallelFor(1000, 2, [&](int i) {
      if (i == 0) throw std::invalid_argument("stop");
      ran.fetch_add(1);
    });
    FAIL() << "expected the exception to propagate";
  } catch (const std::invalid_argument&) {
  }
  EXPECT_LT(ran.load(), 1000);
}

TEST(WorkerPool, BusyPoolRunsSecondCallerInline) {
  WorkerPool pool;
  std::promise<void> started;
  std::atomic<bool> signalled{false};
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::thread holder([&] {
    pool.Run(2, 2, [&](int) {
      if (!signalled.exchange(true)) started.set_value();
      released.wait();
    });
  });
  started.get_future().wait();

  // The pool's job is parked on `released`; a second caller must run its
  // indices itself, in order, instead of queueing behind that job.
  std::mutex order_mu;
  std::vector<int> order;
  std::future<void> second = std::async(std::launch::async, [&] {
    pool.Run(4, 4, [&](int i) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
  });
  const bool finished = second.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.set_value();
  holder.join();
  second.get();
  EXPECT_TRUE(finished) << "second Run waited for the running job";
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- Kernels on the pool -----------------------------------------------------

Matrix RandomMatrix(std::size_t rows, std::size_t cols, double density,
                    std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    if (density >= 1.0 || rng.Bernoulli(density)) {
      m.data()[k] = rng.Uniform(-1.0, 1.0);
    }
  }
  return m;
}

std::vector<double> Flat(const Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.size());
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Runs `kernel` once plainly, once on each of 4 concurrent threads (one of
// which may own the pool while the rest run inline), and once inside each
// unit of a ParallelFor job (inline); every result must be bitwise the
// plain one.
template <typename Kernel>
void ExpectSameBitsEverywhere(const Kernel& kernel) {
  const std::vector<double> plain = kernel();
  std::vector<std::vector<double>> results(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { results[t] = kernel(); });
  }
  for (std::thread& t : threads) t.join();
  ParallelFor(4, 4, [&](int i) { results[4 + i] = kernel(); });
  for (std::size_t r = 0; r < results.size(); ++r) {
    EXPECT_TRUE(SameBits(plain, results[r]))
        << (r < 4 ? "concurrent thread " : "inside ParallelFor unit ")
        << r % 4;
  }
}

// Each kernel test runs one shape above kParallelMinWork and one below it,
// each with at least two blocks, so both sides of ParallelBlocks' decision
// run.
struct Shape {
  std::size_t rows, cols;
  bool above;  ///< the shape's work is at least kParallelMinWork
};

TEST(ParallelKernels, GemmSameBitsOnPoolAndInline) {
  // C = A(rows x 300) B(300 x cols): 128-row blocks, work rows*cols*depth
  // per k-slab; the slabs are 256 and 44 deep.
  constexpr std::size_t kInner = 300;
  for (const Shape s : {Shape{300, 40, true}, Shape{200, 4, false}}) {
    SCOPED_TRACE(s.rows);
    const std::size_t last_slab = kInner % internal::kGemmKC;
    EXPECT_EQ(static_cast<std::int64_t>(s.rows * s.cols * last_slab) >=
                  kParallelMinWork,
              s.above);
    const Matrix a = RandomMatrix(s.rows, kInner, 1.0, 1);
    const Matrix b = RandomMatrix(kInner, s.cols, 1.0, 2);
    ExpectSameBitsEverywhere([&] { return Flat(MatMul(a, b)); });
  }
}

TEST(ParallelKernels, TransposeSameBitsOnPoolAndInline) {
  // 64-column tiles, work rows*cols.
  for (const Shape s : {Shape{600, 500, true}, Shape{200, 200, false}}) {
    SCOPED_TRACE(s.rows);
    EXPECT_EQ(static_cast<std::int64_t>(s.rows * s.cols) >= kParallelMinWork,
              s.above);
    const Matrix a = RandomMatrix(s.rows, s.cols, 1.0, 7);
    ExpectSameBitsEverywhere([&] { return Flat(Transpose(a)); });
  }
}

TEST(ParallelKernels, SpmmSameBitsOnPoolAndInline) {
  // Multiply and SpmmAxpby on a square CSR with ~5 entries per row, times
  // a rows x cols dense matrix: 256-row chunks, work nnz*cols.
  for (const Shape s : {Shape{2000, 64, true}, Shape{300, 8, false}}) {
    SCOPED_TRACE(s.rows);
    const CsrMatrix a = CsrMatrix::FromDense(
        RandomMatrix(s.rows, s.rows, 5.0 / static_cast<double>(s.rows), 8));
    EXPECT_EQ(static_cast<std::int64_t>(a.nnz() * s.cols) >= kParallelMinWork,
              s.above);
    const Matrix z = RandomMatrix(s.rows, s.cols, 1.0, 9);
    const Matrix x = RandomMatrix(s.rows, s.cols, 1.0, 10);
    ExpectSameBitsEverywhere([&] { return Flat(a.Multiply(z)); });
    ExpectSameBitsEverywhere([&] {
      Matrix out;
      a.SpmmAxpby(0.8, z, 0.2, x, &out);
      return Flat(out);
    });
  }
}

}  // namespace
}  // namespace gcon
