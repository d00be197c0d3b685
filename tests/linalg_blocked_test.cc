// Blocked-GEMM engine vs the kept naive reference (linalg/gemm_kernels.h):
// shape sweeps crossing every blocking boundary, alpha/beta handling, the
// transposed drivers, empty operands, the parallelized matrix-vector /
// transpose kernels, the NaN/Inf propagation policy the old zero-operand
// short-circuits violated, and the sparse products that must reproduce the
// blocked GEMM's bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/gemm_kernels.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    m.data()[k] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  internal::GemmReference(1.0, a, b, 0.0, &c);
  return c;
}

// Shapes straddling the register tile (4x8), one MC/KC block, and the
// fringe cases in between. 260 > KC? no — it crosses the MC=128 and the
// micro-tile boundaries; 300 exercises a second k-slab via the k=300 case.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {3, 5, 9},     {4, 8, 8},    {5, 9, 17},
    {8, 300, 8},  {64, 3, 100}, {70, 70, 70},  {127, 31, 33}, {130, 257, 12},
    {12, 12, 260},
};

TEST(BlockedGemm, MatchesReferenceAcrossShapes) {
  Rng rng(101);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    const Matrix got = MatMul(a, b);
    const Matrix want = ReferenceMatMul(a, b);
    EXPECT_TRUE(got.AllClose(want, 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, TransAMatchesReferenceAcrossShapes) {
  Rng rng(103);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.k, s.m, &rng);  // op(A) = A^T is m x k
    const Matrix b = RandomMatrix(s.k, s.n, &rng);
    EXPECT_TRUE(MatMulTransA(a, b).AllClose(
        ReferenceMatMul(Transpose(a), b), 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, TransBMatchesReferenceAcrossShapes) {
  Rng rng(107);
  for (const Shape& s : kShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, &rng);
    const Matrix b = RandomMatrix(s.n, s.k, &rng);  // op(B) = B^T is k x n
    EXPECT_TRUE(MatMulTransB(a, b).AllClose(
        ReferenceMatMul(a, Transpose(b)), 1e-10))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedGemm, AlphaBetaCombinations) {
  Rng rng(109);
  const Matrix a = RandomMatrix(37, 41, &rng);
  const Matrix b = RandomMatrix(41, 29, &rng);
  const Matrix c0 = RandomMatrix(37, 29, &rng);
  const double alphas[] = {0.0, 1.0, -2.5, 0.75};
  const double betas[] = {0.0, 1.0, -1.0, 0.5};
  for (double alpha : alphas) {
    for (double beta : betas) {
      Matrix got = c0;
      Gemm(alpha, a, b, beta, &got);
      Matrix want = c0;
      internal::GemmReference(alpha, a, b, beta, &want);
      EXPECT_TRUE(got.AllClose(want, 1e-10))
          << "alpha=" << alpha << " beta=" << beta;
    }
  }
}

TEST(BlockedGemm, BetaZeroOverwritesNanInC) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{3.0}, {4.0}};
  Matrix c(1, 1);
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  Gemm(1.0, a, b, 0.0, &c);
  EXPECT_DOUBLE_EQ(c(0, 0), 11.0);
}

TEST(BlockedGemm, EmptyOperands) {
  // k == 0: the product term is empty, C = beta * C.
  Matrix c{{2.0, 4.0}};
  Gemm(1.0, Matrix(1, 0), Matrix(0, 2), 0.5, &c);
  EXPECT_TRUE(c.AllClose(Matrix{{1.0, 2.0}}));
  // m == 0 / n == 0 products are legal no-ops of the right shape.
  EXPECT_EQ(MatMul(Matrix(0, 3), Matrix(3, 2)).rows(), 0u);
  EXPECT_EQ(MatMul(Matrix(2, 3), Matrix(3, 0)).cols(), 0u);
}

TEST(BlockedGemm, RepeatedCallsAreBitwiseIdentical) {
  Rng rng(113);
  const Matrix a = RandomMatrix(97, 130, &rng);
  const Matrix b = RandomMatrix(130, 61, &rng);
  const Matrix first = MatMul(a, b);
  const Matrix second = MatMul(a, b);
  EXPECT_TRUE(first.AllClose(second, 0.0));
}

// --- NaN/Inf policy ---------------------------------------------------------
// The seed kernels skipped `av == 0` operands, so a NaN/Inf in the other
// matrix silently vanished from the product. The blocked kernels must
// propagate them.

TEST(NanPolicy, GemmPropagatesNanPastZeroInA) {
  Matrix a(2, 2);  // all zeros
  Matrix b(2, 2);
  b(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const Matrix c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c(0, 0)));
  EXPECT_TRUE(std::isnan(c(1, 0)));
}

TEST(NanPolicy, GemmPropagatesInfAsNanPastZero) {
  Matrix a(1, 1);  // zero
  Matrix b(1, 1);
  b(0, 0) = std::numeric_limits<double>::infinity();
  const Matrix c = MatMul(a, b);  // 0 * inf = NaN
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(NanPolicy, TransAPropagatesNanPastZeroInA) {
  Matrix a(2, 2);  // zeros; op(A) = A^T
  Matrix b(2, 2);
  b(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const Matrix c = MatMulTransA(a, b);
  EXPECT_TRUE(std::isnan(c(0, 1)));
}

// --- sparse products --------------------------------------------------------
// CsrMatrix::BlockedMultiply skips structural zeros but must still produce,
// element for element, the bits GemmBlocked gives for the densified operand
// (same KC-deep slabs, ascending k, the dispatched kernel's rounding). The
// shapes cross the KC = 256 slab boundary on both the forward inner
// dimension (k) and the transposed one (the row count).

// rows x cols with each entry nonzero with probability `density`.
Matrix SparseRandom(std::size_t rows, std::size_t cols, double density,
                    Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    if (rng->Bernoulli(density)) m.data()[k] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

Matrix Blocked(const Matrix& a, bool trans_a, const Matrix& b) {
  Matrix c(trans_a ? a.cols() : a.rows(), b.cols());
  internal::GemmBlocked(1.0, a, trans_a, b, /*trans_b=*/false, 0.0, &c);
  return c;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(SparseBlocked, BothProductsMatchBlockedGemmBitwise) {
  Rng rng(139);
  for (const std::size_t k : {255u, 256u, 257u, 2879u}) {
    for (const std::size_t rows : {140u, 256u, 257u, 600u}) {
      for (const double density : {0.0, 0.012, 0.2, 1.0}) {
        const Matrix x = SparseRandom(rows, k, density, &rng);
        const CsrMatrix csr = CsrMatrix::FromDense(x);
        const CsrMatrix csr_t = csr.Transposed();
        for (const std::size_t n : {7u, 16u, 32u}) {
          const Matrix w = RandomMatrix(k, n, &rng);
          const Matrix dz = RandomMatrix(rows, n, &rng);
          EXPECT_TRUE(SameBits(csr.BlockedMultiply(w), Blocked(x, false, w)))
              << "X*W " << rows << "x" << k << "x" << n << " @" << density;
          EXPECT_TRUE(SameBits(csr_t.BlockedMultiply(dz), Blocked(x, true, dz)))
              << "X^T*dZ " << rows << "x" << k << "x" << n << " @" << density;
        }
      }
    }
  }
}

TEST(SparseBlocked, EdgeRowsMatchBlockedGemmBitwise) {
  Rng rng(149);
  const std::size_t k = 2879;
  Matrix x = SparseRandom(300, k, 0.012, &rng);
  for (std::size_t j = 0; j < k; ++j) x(0, j) = 0.0;  // all-zero row
  for (std::size_t j = 0; j < k; ++j) {
    // Row 1 stores entries only in the last (partial) slab.
    x(1, j) = j >= 2816 && rng.Bernoulli(0.3) ? rng.Uniform(-1.0, 1.0) : 0.0;
    // Row 2 holds explicit -0.0 between its nonzeros.
    x(2, j) = j % 3 == 0 ? -0.0 : (j % 97 == 1 ? rng.Uniform(-1.0, 1.0) : 0.0);
  }
  // Even columns store nothing in rows 3..256, so most of them begin the
  // transposed product's inner sum in its second slab (rows 256+).
  for (std::size_t i = 3; i < 257; ++i) {
    for (std::size_t j = 0; j < k; j += 2) x(i, j) = 0.0;
  }
  const Matrix w = RandomMatrix(k, 32, &rng);
  const Matrix dz = RandomMatrix(300, 32, &rng);
  const CsrMatrix csr = CsrMatrix::FromDense(x);
  const Matrix forward = csr.BlockedMultiply(w);
  EXPECT_TRUE(SameBits(forward, Blocked(x, false, w)));
  EXPECT_TRUE(SameBits(csr.Transposed().BlockedMultiply(dz),
                       Blocked(x, true, dz)));
  for (std::size_t j = 0; j < 32; ++j) {
    EXPECT_EQ(forward(0, j), 0.0);
    EXPECT_FALSE(std::signbit(forward(0, j)));  // +0, as GemmBlocked gives
  }
}

TEST(SparseBlocked, NegativeZeroOperandsKeepGemmSigns) {
  // Products that are all -0 still sum to +0 from the +0 accumulator, in
  // both kernels.
  const Matrix x{{1.0, -0.0}, {-0.0, 0.0}};
  const Matrix w{{-0.0, 0.0}, {-1.0, 1.0}};
  EXPECT_TRUE(SameBits(CsrMatrix::FromDense(x).BlockedMultiply(w),
                       Blocked(x, false, w)));
}

TEST(NanPolicy, SparseProductConfinesNanWeightRowToStoringRows) {
  // The one place the sparse products part from GemmBlocked: a NaN in row j
  // of the dense operand reaches only the rows that store column j, since
  // skipped zeros never multiply it. Artifact loading refuses non-finite
  // weights, so the encoder never sees this.
  Matrix x(3, 3);
  x(0, 2) = 1.0;  // row 0 stores column 2
  x(1, 0) = 1.0;  // row 1 does not; row 2 stores nothing
  Matrix w(3, 2, 1.0);
  w(2, 0) = std::numeric_limits<double>::quiet_NaN();
  const Matrix sparse = CsrMatrix::FromDense(x).BlockedMultiply(w);
  EXPECT_TRUE(std::isnan(sparse(0, 0)));
  EXPECT_EQ(sparse(0, 1), 1.0);
  EXPECT_EQ(sparse(1, 0), 1.0);
  EXPECT_EQ(sparse(2, 0), 0.0);
  const Matrix dense = MatMul(x, w);  // 0 * NaN poisons every row
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isnan(dense(i, 0)));
}

TEST(ParallelKernels, TransposeTiledMatchesElementwise) {
  Rng rng(137);
  const Matrix a = RandomMatrix(130, 67, &rng);  // crosses the 64-tile
  const Matrix t = Transpose(a);
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(t(j, i), a(i, j));
    }
  }
}

}  // namespace
}  // namespace gcon
