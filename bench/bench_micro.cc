// Kernel micro-benchmarks (google-benchmark): the hot paths of the
// reproduction — dense GEMM (blocked vs the kept seed-naive reference),
// the encoder's first layer (dense vs sparse input), SpMM and the fused
// SpmmAxpby APPR round, propagation, the propagation
// cache, Erlang-sphere noise sampling, the Theorem 1 parameter chain, and
// the convex minimization.
//
// Counters feed the machine-readable perf artifact
// (tools/bench_linalg_json.sh -> BENCH_linalg.json): GEMM reports FLOPS
// (rate), SpMM rows_per_s, APPR is tracked by wall time.
#include <benchmark/benchmark.h>

#include "core/convex_loss.h"
#include "core/noise.h"
#include "core/objective.h"
#include "core/theorem1.h"
#include "graph/datasets.h"
#include "linalg/gemm_kernels.h"
#include "linalg/ops.h"
#include "propagation/appr.h"
#include "propagation/cache.h"
#include "propagation/transition.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    m.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

void SetGemmCounters(benchmark::State& state, std::size_t n) {
  const double flops_per_iter = 2.0 * static_cast<double>(n) *
                                static_cast<double>(n) *
                                static_cast<double>(n);
  state.counters["FLOPS"] =
      benchmark::Counter(flops_per_iter * static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(n));
}

void BM_DenseGemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_DenseGemm)->Arg(64)->Arg(256);

// The seed repository's i-k-j kernel, kept as the speedup baseline.
void BM_DenseGemmSeedNaive(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    internal::GemmReference(1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_DenseGemmSeedNaive)->Arg(64)->Arg(256);

void BM_DenseGemmTransA(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 5);
  const Matrix b = RandomMatrix(n, n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_DenseGemmTransA)->Arg(256);

void BM_DenseGemmTransB(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 7);
  const Matrix b = RandomMatrix(n, n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, b));
  }
  SetGemmCounters(state, n);
}
BENCHMARK(BM_DenseGemmTransB)->Arg(256);

void BM_SpMM(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = static_cast<int>(state.range(0));
  spec.num_undirected_edges = static_cast<std::size_t>(5 * state.range(0));
  Rng rng(3);
  const Graph graph = GenerateDataset(spec, &rng);
  const CsrMatrix t = BuildTransition(graph);
  const Matrix x = RandomMatrix(static_cast<std::size_t>(spec.num_nodes), 64, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Multiply(x));
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(t.rows()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.nnz()) * 64);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(10000);

// The encoder's first layer at the cora_ml training shape: 140 bag-of-words
// rows x 2,879 features, 32 hidden units. Op 0 is the forward product X*W,
// op 1 the weight gradient X^T*dZ: dense through GemmBlocked, sparse through
// CsrMatrix::BlockedMultiply on a CSR built beforehand, as Mlp::Train builds
// it once for all epochs (same bits either way). Sparse op 2 is that CSR
// build, which every Mlp::Forward call on a sparse input pays on top of op 0.
// First arg: density in 1/1000 (12 = cora_ml; 100 = Mlp's sparse cutoff).
constexpr std::size_t kEncoderRows = 140;
constexpr std::size_t kEncoderFeatures = 2879;
constexpr std::size_t kEncoderHidden = 32;

Matrix SparseFeatures(std::int64_t density_milli) {
  Rng rng(12);
  Matrix x(kEncoderRows, kEncoderFeatures);
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (rng.Bernoulli(static_cast<double>(density_milli) / 1000.0)) {
      x.data()[k] = 1.0;
    }
  }
  return x;
}

void BM_EncoderLayer0Dense(benchmark::State& state) {
  const Matrix x = SparseFeatures(state.range(0));
  const bool gradient = state.range(1) == 1;
  const Matrix w = RandomMatrix(kEncoderFeatures, kEncoderHidden, 13);
  const Matrix dz = RandomMatrix(kEncoderRows, kEncoderHidden, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gradient ? MatMulTransA(x, dz) : MatMul(x, w));
  }
}
BENCHMARK(BM_EncoderLayer0Dense)->ArgsProduct({{12, 100}, {0, 1}});

void BM_EncoderLayer0Sparse(benchmark::State& state) {
  const Matrix x = SparseFeatures(state.range(0));
  const std::int64_t op = state.range(1);
  const Matrix w = RandomMatrix(kEncoderFeatures, kEncoderHidden, 13);
  const Matrix dz = RandomMatrix(kEncoderRows, kEncoderHidden, 14);
  const CsrMatrix csr = CsrMatrix::FromDense(x);
  const CsrMatrix csr_t = csr.Transposed();
  for (auto _ : state) {
    if (op == 0) {
      benchmark::DoNotOptimize(csr.BlockedMultiply(w));
    } else if (op == 1) {
      benchmark::DoNotOptimize(csr_t.BlockedMultiply(dz));
    } else {
      benchmark::DoNotOptimize(CsrMatrix::FromDense(x));
    }
  }
}
BENCHMARK(BM_EncoderLayer0Sparse)->ArgsProduct({{12, 100}, {0, 1, 2}});

// One APPR round, fused (single SpmmAxpby pass) vs the pre-fusion three-op
// sequence (Multiply allocates, then scale, then axpy).
void BM_ApprRoundFused(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 10000;
  Rng rng(5);
  const Graph graph = GenerateDataset(spec, &rng);
  const CsrMatrix t = BuildTransition(graph);
  const Matrix x = RandomMatrix(2000, 32, 6);
  Matrix out(2000, 32);
  for (auto _ : state) {
    t.SpmmAxpby(0.5, x, 0.5, x, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ApprRoundFused);

void BM_ApprRoundThreeOp(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 10000;
  Rng rng(5);
  const Graph graph = GenerateDataset(spec, &rng);
  const CsrMatrix t = BuildTransition(graph);
  const Matrix x = RandomMatrix(2000, 32, 6);
  for (auto _ : state) {
    Matrix out = t.Multiply(x);
    ScaleInPlace(0.5, &out);
    AxpyInPlace(0.5, x, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ApprRoundThreeOp);

void BM_ApprPropagate(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 10000;
  Rng rng(5);
  const Graph graph = GenerateDataset(spec, &rng);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = RandomMatrix(2000, 32, 6);
  RowL2NormalizeInPlace(&x);
  const int m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApprPropagate(t, x, m, 0.5));
  }
}
BENCHMARK(BM_ApprPropagate)->Arg(2)->Arg(10)->Arg(20);

void BM_PprFixedPoint(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 10000;
  Rng rng(7);
  const Graph graph = GenerateDataset(spec, &rng);
  const CsrMatrix t = BuildTransition(graph);
  Matrix x = RandomMatrix(2000, 32, 8);
  RowL2NormalizeInPlace(&x);
  const double alpha = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PprPropagate(t, x, alpha, 1e-8));
  }
}
BENCHMARK(BM_PprFixedPoint)->Arg(2)->Arg(6);

// Warm-cache ConcatPropagate (hash + copy) vs the recompute it replaces —
// the per-run cost a repeated-run sweep pays after the first run.
void BM_PropagationCacheHit(benchmark::State& state) {
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 10000;
  Rng rng(5);
  const Graph graph = GenerateDataset(spec, &rng);
  Matrix x = RandomMatrix(2000, 32, 6);
  RowL2NormalizeInPlace(&x);
  const std::vector<int> steps = {2};
  PropagationCache cache;
  const PropagationCache::CachedCsr t = cache.Transition(graph);
  cache.ConcatPropagate(*t.csr, t.key, x, steps, 0.5);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.ConcatPropagate(*t.csr, t.key, x, steps, 0.5));
  }
  state.counters["hits"] = static_cast<double>(cache.stats().propagation_hits);
}
BENCHMARK(BM_PropagationCacheHit);

void BM_NoiseSampling(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleNoiseMatrix(d, 7, 2.0, &rng));
  }
}
BENCHMARK(BM_NoiseSampling)->Arg(16)->Arg(128)->Arg(1024);

void BM_Theorem1Chain(benchmark::State& state) {
  const ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(7);
  PrivacyInputs in;
  in.epsilon = 1.0;
  in.delta = 1e-5;
  in.omega = 0.9;
  in.lambda = 0.2;
  in.n1 = 3000;
  in.num_classes = 7;
  in.dim = static_cast<int>(state.range(0));
  in.psi_z = 1.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePrivacyParams(in, loss));
  }
}
BENCHMARK(BM_Theorem1Chain)->Arg(16)->Arg(256);

void BM_ConvexMinimize(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  Matrix z = RandomMatrix(static_cast<std::size_t>(n1), 32, 10);
  RowL2NormalizeInPlace(&z);
  Matrix y(static_cast<std::size_t>(n1), 7);
  Rng rng(11);
  for (int i = 0; i < n1; ++i) {
    y(static_cast<std::size_t>(i), rng.UniformInt(7)) = 1.0;
  }
  const ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(7);
  const Matrix noise = SampleNoiseMatrix(32, 7, 2.0, &rng);
  const PerturbedObjective objective(&z, &y, &loss, 0.3, &noise);
  MinimizeOptions options;
  options.max_iterations = 200;
  options.gradient_tolerance = 0.0;  // fixed work per iteration
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimizeAdam(objective, options));
  }
}
BENCHMARK(BM_ConvexMinimize)->Arg(500)->Arg(2000);

void BM_GraphGeneration(benchmark::State& state) {
  DatasetSpec spec = Scaled(CoraMlSpec(), 0.2);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(GenerateDataset(spec, &rng));
  }
}
BENCHMARK(BM_GraphGeneration);

}  // namespace
}  // namespace gcon

BENCHMARK_MAIN();
