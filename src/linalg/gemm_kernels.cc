#include "linalg/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/metrics.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define GCON_GEMM_HAVE_X86_DISPATCH 1
#else
#define GCON_GEMM_HAVE_X86_DISPATCH 0
#endif

namespace gcon {
namespace internal {
namespace {

constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;

// --- packing ---------------------------------------------------------------
//
// A block (mc x kc) is stored as ceil(mc/MR) strips, each strip holding kc
// consecutive MR-wide column slices: packed[(strip*kc + p)*MR + r] =
// op(A)(ic + strip*MR + r, pc + p). B panels use the mirrored layout with
// NR-wide row slices. Fringe strips are zero-padded so the micro-kernel
// never branches on the tile shape.

void PackA(const Matrix& a, bool trans, std::size_t ic, std::size_t pc,
           std::size_t mc, std::size_t kc, double* packed) {
  const std::size_t strips = (mc + MR - 1) / MR;
  std::memset(packed, 0, strips * kc * MR * sizeof(double));
  if (!trans) {
    for (std::size_t i = 0; i < mc; ++i) {
      const double* row = a.RowPtr(ic + i) + pc;
      double* dst = packed + ((i / MR) * kc) * MR + (i % MR);
      for (std::size_t p = 0; p < kc; ++p) {
        dst[p * MR] = row[p];
      }
    }
  } else {
    // op(A) = A^T with A stored (k x m): read rows of A contiguously.
    for (std::size_t p = 0; p < kc; ++p) {
      const double* row = a.RowPtr(pc + p) + ic;
      for (std::size_t i = 0; i < mc; ++i) {
        packed[((i / MR) * kc + p) * MR + (i % MR)] = row[i];
      }
    }
  }
}

void PackB(const Matrix& b, bool trans, std::size_t pc, std::size_t jc,
           std::size_t kc, std::size_t nc, double* packed) {
  const std::size_t strips = (nc + NR - 1) / NR;
  std::memset(packed, 0, strips * kc * NR * sizeof(double));
  if (!trans) {
    for (std::size_t p = 0; p < kc; ++p) {
      const double* row = b.RowPtr(pc + p) + jc;
      for (std::size_t j = 0; j < nc; ++j) {
        packed[((j / NR) * kc + p) * NR + (j % NR)] = row[j];
      }
    }
  } else {
    // op(B) = B^T with B stored (n x k): read rows of B contiguously.
    for (std::size_t j = 0; j < nc; ++j) {
      const double* row = b.RowPtr(jc + j) + pc;
      double* dst = packed + ((j / NR) * kc) * NR + (j % NR);
      for (std::size_t p = 0; p < kc; ++p) {
        dst[p * NR] = row[p];
      }
    }
  }
}

// --- micro-kernels ---------------------------------------------------------
//
// acc (MR x NR, row-major) = sum_p a_strip[p][0..MR) outer b_strip[p][0..NR).
// Both kernels accumulate in the same p order; they differ only in FMA
// rounding, which is fixed per machine by the one-time dispatch below.

using MicroKernelFn = void (*)(std::size_t, const double*, const double*,
                               double*);

void MicroKernelPortable(std::size_t kc, const double* ap, const double* bp,
                         double* acc) {
  double c[MR * NR] = {0.0};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* av = ap + p * MR;
    const double* bv = bp + p * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double a = av[r];
      for (std::size_t s = 0; s < NR; ++s) {
        c[r * NR + s] += a * bv[s];
      }
    }
  }
  std::memcpy(acc, c, sizeof(c));
}

#if GCON_GEMM_HAVE_X86_DISPATCH
__attribute__((target("avx2,fma"))) void MicroKernelAvx2(std::size_t kc,
                                                         const double* ap,
                                                         const double* bp,
                                                         double* acc) {
  // 4 x 8 tile: 8 YMM accumulators, 2 B vectors, 1 broadcast A register.
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(bp + p * NR);
    const __m256d b1 = _mm256_loadu_pd(bp + p * NR + 4);
    __m256d a = _mm256_broadcast_sd(ap + p * MR + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + p * MR + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + p * MR + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + p * MR + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(acc + 0 * NR + 0, c00);
  _mm256_storeu_pd(acc + 0 * NR + 4, c01);
  _mm256_storeu_pd(acc + 1 * NR + 0, c10);
  _mm256_storeu_pd(acc + 1 * NR + 4, c11);
  _mm256_storeu_pd(acc + 2 * NR + 0, c20);
  _mm256_storeu_pd(acc + 2 * NR + 4, c21);
  _mm256_storeu_pd(acc + 3 * NR + 0, c30);
  _mm256_storeu_pd(acc + 3 * NR + 4, c31);
}
#endif  // GCON_GEMM_HAVE_X86_DISPATCH

// --- row-update primitive ----------------------------------------------------
//
// y += sum_t a[t] * B(rows[t], :) in ascending t, each term rounded like the
// micro-kernel of the same tier: the portable kernel's `c += a * b` and the
// AVX2 kernel's FMA. The sparse products in sparse/csr_matrix.h build their
// k-slab accumulators from this, so they round exactly like GemmBlocked.

using AccumulateRowsFn = void (*)(const double*, const std::int32_t*,
                                  std::size_t, const Matrix&, double*);

void AccumulateRowsPortable(const double* a, const std::int32_t* rows,
                            std::size_t count, const Matrix& b, double* y) {
  const std::size_t n = b.cols();
  for (std::size_t t = 0; t < count; ++t) {
    const double at = a[t];
    const double* brow = b.RowPtr(static_cast<std::size_t>(rows[t]));
    for (std::size_t j = 0; j < n; ++j) {
      y[j] += at * brow[j];
    }
  }
}

#if GCON_GEMM_HAVE_X86_DISPATCH
__attribute__((target("avx2,fma"))) void AccumulateRowsAvx2(
    const double* a, const std::int32_t* rows, std::size_t count,
    const Matrix& b, double* y) {
  const std::size_t n = b.cols();
  std::size_t j = 0;
  // 16 columns at a time stay in four registers across all the terms.
  for (; j + 16 <= n; j += 16) {
    __m256d c0 = _mm256_loadu_pd(y + j), c1 = _mm256_loadu_pd(y + j + 4);
    __m256d c2 = _mm256_loadu_pd(y + j + 8), c3 = _mm256_loadu_pd(y + j + 12);
    for (std::size_t t = 0; t < count; ++t) {
      const double* brow = b.RowPtr(static_cast<std::size_t>(rows[t])) + j;
      const __m256d at = _mm256_broadcast_sd(a + t);
      c0 = _mm256_fmadd_pd(at, _mm256_loadu_pd(brow), c0);
      c1 = _mm256_fmadd_pd(at, _mm256_loadu_pd(brow + 4), c1);
      c2 = _mm256_fmadd_pd(at, _mm256_loadu_pd(brow + 8), c2);
      c3 = _mm256_fmadd_pd(at, _mm256_loadu_pd(brow + 12), c3);
    }
    _mm256_storeu_pd(y + j, c0);
    _mm256_storeu_pd(y + j + 4, c1);
    _mm256_storeu_pd(y + j + 8, c2);
    _mm256_storeu_pd(y + j + 12, c3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c = _mm256_loadu_pd(y + j);
    for (std::size_t t = 0; t < count; ++t) {
      const double* brow = b.RowPtr(static_cast<std::size_t>(rows[t])) + j;
      c = _mm256_fmadd_pd(_mm256_broadcast_sd(a + t), _mm256_loadu_pd(brow),
                          c);
    }
    _mm256_storeu_pd(y + j, c);
  }
  for (; j < n; ++j) {
    for (std::size_t t = 0; t < count; ++t) {
      y[j] = std::fma(a[t], b(static_cast<std::size_t>(rows[t]), j), y[j]);
    }
  }
}
#endif  // GCON_GEMM_HAVE_X86_DISPATCH

bool DetectAvx2() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

struct Kernels {
  MicroKernelFn micro;
  AccumulateRowsFn accumulate_rows;
};

Kernels ResolveKernels() {
#if GCON_GEMM_HAVE_X86_DISPATCH
  if (DetectAvx2()) return {MicroKernelAvx2, AccumulateRowsAvx2};
#endif
  return {MicroKernelPortable, AccumulateRowsPortable};
}

// Resolved once, as a pair; the choice is stable for the process lifetime,
// so repeated products on identical inputs are bitwise identical.
const Kernels kKernels = ResolveKernels();

// Writes an rows x cols corner of the MR x NR accumulator tile into C at
// (ci, cj). `first` marks the first k-slab, where beta is applied (beta == 0
// overwrites without reading C); later slabs accumulate.
inline void WriteTile(const double* acc, std::size_t rows, std::size_t cols,
                      double alpha, double beta, bool first, Matrix* c,
                      std::size_t ci, std::size_t cj) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* crow = c->RowPtr(ci + r) + cj;
    const double* arow = acc + r * NR;
    if (!first) {
      for (std::size_t s = 0; s < cols; ++s) crow[s] += alpha * arow[s];
    } else if (beta == 0.0) {
      for (std::size_t s = 0; s < cols; ++s) crow[s] = alpha * arow[s];
    } else {
      for (std::size_t s = 0; s < cols; ++s) {
        crow[s] = alpha * arow[s] + beta * crow[s];
      }
    }
  }
}

void ScaleOrZero(double beta, Matrix* c) {
  double* cd = c->data();
  if (beta == 0.0) {
    std::memset(cd, 0, c->size() * sizeof(double));
  } else if (beta != 1.0) {
    for (std::size_t i = 0; i < c->size(); ++i) cd[i] *= beta;
  }
}

// Shape-class accounting for the observability tier: every real GemmBlocked
// call (one that runs the packed kernel) bumps a per-class call counter and
// a FLOP counter (2*m*n*k). The classes partition the (m, n) plane the way
// the serve path exercises it: single-row feature GEMVs, tall inference
// batches, and near-square training products.
constexpr std::array<const char*, 5> kGemmShapeNames = {
    "vec_mat", "mat_vec", "tall_skinny", "wide", "square"};

std::size_t GemmShapeClass(std::size_t m, std::size_t n) {
  if (m == 1) return 0;           // vec_mat: one row through the weights
  if (n == 1) return 1;           // mat_vec
  if (m >= 4 * n) return 2;       // tall_skinny: batch >> width
  if (n >= 4 * m) return 3;       // wide
  return 4;                       // square-ish
}

void RecordGemmCall(std::size_t m, std::size_t n, std::size_t k) {
  if (!obs::MetricsEnabled()) return;
  struct ShapeHandles {
    obs::Counter* calls;
    obs::Counter* flops;
  };
  static const std::array<ShapeHandles, 5> handles = [] {
    std::array<ShapeHandles, 5> out{};
    auto& registry = obs::MetricsRegistry::Global();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].calls = registry.counter(
          "gcon_gemm_calls_total", "GemmBlocked invocations, by shape class.",
          {{"shape", kGemmShapeNames[i]}});
      out[i].flops = registry.counter(
          "gcon_gemm_flops_total",
          "Floating-point operations (2*m*n*k), by shape class.",
          {{"shape", kGemmShapeNames[i]}});
    }
    return out;
  }();
  const ShapeHandles& h = handles[GemmShapeClass(m, n)];
  h.calls->Increment();
  h.flops->Increment(2ull * m * n * k);
}

}  // namespace

bool GemmUsesAvx2() { return kKernels.micro != MicroKernelPortable; }

void AccumulateRows(const double* a, const std::int32_t* rows,
                    std::size_t count, const Matrix& b, double* y) {
  kKernels.accumulate_rows(a, rows, count, b, y);
}

void GemmBlocked(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, double beta, Matrix* c) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  GCON_CHECK_EQ(k, trans_b ? b.cols() : b.rows())
      << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), m);
  GCON_CHECK_EQ(c->cols(), n);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0) {
    // No product term: C = beta * C (BLAS convention, A/B never read).
    ScaleOrZero(beta, c);
    return;
  }
  RecordGemmCall(m, n, k);

  const std::size_t max_nc = std::min(kGemmNC, n);
  const std::size_t max_kc = std::min(kGemmKC, k);
  const std::size_t b_strips_cap = (max_nc + NR - 1) / NR;
  std::vector<double> bpack(b_strips_cap * max_kc * NR);

  for (std::size_t jc = 0; jc < n; jc += kGemmNC) {
    const std::size_t nc = std::min(kGemmNC, n - jc);
    const std::size_t j_strips = (nc + NR - 1) / NR;
    for (std::size_t pc = 0; pc < k; pc += kGemmKC) {
      const std::size_t kc = std::min(kGemmKC, k - pc);
      const bool first = (pc == 0);
      PackB(b, trans_b, pc, jc, kc, nc, bpack.data());

      const std::size_t apack_size = ((kGemmMC + MR - 1) / MR) * kc * MR;
      auto row_block = [&](int ib) {
        // One A-panel scratch per thread, kept across blocks and calls.
        thread_local std::vector<double> apack;
        if (apack.size() < apack_size) apack.resize(apack_size);
        alignas(64) double acc[MR * NR];
        const std::size_t ic = static_cast<std::size_t>(ib) * kGemmMC;
        const std::size_t mc = std::min(kGemmMC, m - ic);
        const std::size_t i_strips = (mc + MR - 1) / MR;
        PackA(a, trans_a, ic, pc, mc, kc, apack.data());
        for (std::size_t js = 0; js < j_strips; ++js) {
          const double* bs = bpack.data() + js * kc * NR;
          const std::size_t cols = std::min(NR, nc - js * NR);
          for (std::size_t is = 0; is < i_strips; ++is) {
            kKernels.micro(kc, apack.data() + is * kc * MR, bs, acc);
            WriteTile(acc, std::min(MR, mc - is * MR), cols, alpha, beta,
                      first, c, ic + is * MR, jc + js * NR);
          }
        }
      };
      ParallelBlocks(static_cast<int>((m + kGemmMC - 1) / kGemmMC),
                     static_cast<std::int64_t>(m * nc * kc), row_block);
    }
  }
}

void GemmReference(double alpha, const Matrix& a, const Matrix& b, double beta,
                   Matrix* c) {
  GCON_CHECK_EQ(a.cols(), b.rows()) << "gemm: inner dims mismatch";
  GCON_CHECK_EQ(c->rows(), a.rows());
  GCON_CHECK_EQ(c->cols(), b.cols());
  const std::int64_t m = static_cast<std::int64_t>(a.rows());
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  for (std::int64_t i = 0; i < m; ++i) {
    double* crow = c->RowPtr(static_cast<std::size_t>(i));
    if (beta == 0.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const double* arow = a.RowPtr(static_cast<std::size_t>(i));
    for (std::size_t p = 0; p < k; ++p) {
      const double av = alpha * arow[p];
      const double* brow = b.RowPtr(p);
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace internal
}  // namespace gcon
