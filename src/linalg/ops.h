// Dense BLAS-like kernels on Matrix and std::vector<double>.
//
// The matrix products (MatMul / MatMulTransA / MatMulTransB / Gemm) route
// through the cache-blocked, register-tiled engine in linalg/gemm_kernels.h:
// packed panels, a 4x8 micro-kernel (AVX2+FMA when the CPU has it, selected
// once at startup), and row blocks. Tuning knobs and the kept naive
// reference kernel live in that header. The matrix-vector products and
// Transpose are blocked loops. Every kernel's blocks run through
// ParallelBlocks (common/parallel.h): inline when small, else on the pool.
//
// Numerical policy:
//   * Repeated calls on identical inputs are bitwise identical for a fixed
//     build and machine — accumulation order never depends on which thread
//     runs a block, or whether the call ran on the pool or inline.
//   * Non-finite values propagate: kernels never skip a multiply because one
//     operand is zero, so 0 * NaN = NaN and 0 * Inf = NaN reach the output
//     exactly as IEEE arithmetic dictates. (The pre-blocking kernels
//     short-circuited zero operands, silently dropping NaN/Inf from the
//     other matrix.) The only zero tests are the BLAS-conventional ones on
//     the *scalars* alpha (alpha == 0 skips the product entirely) and beta
//     (beta == 0 overwrites C without reading it).
//   * The one sanctioned zero skip is structural: CsrMatrix::BlockedMultiply
//     (sparse/csr_matrix.h), which Mlp uses for a sparse first layer, never
//     visits unstored entries. It sums the same KC-deep slabs in the same
//     order with the same rounding (linalg/gemm_kernels.h AccumulateRows),
//     so for finite operands its result is bitwise GemmBlocked's on the
//     densified matrix; only a NaN/Inf in the dense operand can tell them
//     apart.
#ifndef GCON_LINALG_OPS_H_
#define GCON_LINALG_OPS_H_

#include <vector>

#include "linalg/matrix.h"

namespace gcon {

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// C = A * B. Shapes: (m x k) * (k x n) -> (m x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// General update: C = alpha * A * B + beta * C (C must be m x n).
void Gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix* c);

// ---------------------------------------------------------------------------
// Element-wise and structural ops
// ---------------------------------------------------------------------------

/// Returns A^T.
Matrix Transpose(const Matrix& a);

/// a += alpha * b (same shape).
void AxpyInPlace(double alpha, const Matrix& b, Matrix* a);

/// a *= alpha.
void ScaleInPlace(double alpha, Matrix* a);

/// Element-wise product: returns a ⊙ b.
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Returns a + b.
Matrix Add(const Matrix& a, const Matrix& b);

/// Returns a - b.
Matrix Sub(const Matrix& a, const Matrix& b);

/// Horizontal concatenation [a | b] (same row count).
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Horizontal concatenation of several blocks.
Matrix ConcatCols(const std::vector<Matrix>& blocks);

/// Copies the rows of `a` listed in `index` into a new matrix.
Matrix GatherRows(const Matrix& a, const std::vector<int>& index);

// ---------------------------------------------------------------------------
// Reductions and norms
// ---------------------------------------------------------------------------

/// Frobenius norm of A.
double FrobeniusNorm(const Matrix& a);

/// Sum over all elements of the element-wise product a ⊙ b
/// (the ⊙-then-sum operator in Eq. (13) of the paper).
double DotAll(const Matrix& a, const Matrix& b);

/// L2 norm of row i.
double RowNorm2(const Matrix& a, std::size_t i);

/// Sum of row i.
double RowSum(const Matrix& a, std::size_t i);

/// Sum of column j.
double ColSum(const Matrix& a, std::size_t j);

/// Normalizes each row to unit L2 norm. Rows with norm below `eps`
/// are left unchanged (they would otherwise divide by ~0).
void RowL2NormalizeInPlace(Matrix* a, double eps = 1e-12);

/// Index of the maximum element in row i (ties -> smallest index).
std::size_t RowArgMax(const Matrix& a, std::size_t i);

// ---------------------------------------------------------------------------
// Vector helpers
// ---------------------------------------------------------------------------

double Dot(const std::vector<double>& x, const std::vector<double>& y);
double Norm2(const std::vector<double>& x);
double Norm1(const std::vector<double>& x);
/// x += alpha * y.
void Axpy(double alpha, const std::vector<double>& y, std::vector<double>* x);

}  // namespace gcon

#endif  // GCON_LINALG_OPS_H_
