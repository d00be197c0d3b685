// Cache-blocked, register-tiled GEMM engine behind linalg/ops.h.
//
// Layout follows the classic three-level blocking scheme (Goto/BLIS, and
// Radford Neal's matprod): the driver partitions C into NC-wide column
// panels, the k dimension into KC-deep slabs, and the rows into MC-tall
// blocks. For each (jc, pc) pair a KC x NC panel of B is packed into
// contiguous NR-wide column strips; for each ic a MC x KC block of A is
// packed into MR-tall row strips. The inner micro-kernel then computes an
// MR x NR tile of C with all accumulators in registers, reading the packed
// panels sequentially.
//
// Two micro-kernels are provided: a portable scalar/SSE2 one and an
// AVX2+FMA one compiled with a function-level target attribute and selected
// once at startup via __builtin_cpu_supports, so the binary stays runnable
// on any x86-64 (and non-x86 builds fall back to the portable kernel).
//
// Numerical contract: for a fixed build the k-accumulation order is fixed
// (the pc loop is sequential; the worker pool only distributes disjoint
// MC-row blocks of C), so repeated calls on identical inputs are bitwise
// identical whether a block runs on the pool or inline. Unlike the
// pre-blocking kernels there is NO zero-operand short-circuit: a zero in A
// multiplied by a NaN/Inf in B contributes NaN/Inf to C, exactly as IEEE
// arithmetic dictates (see linalg/ops.h).
//
// The sparse products (CsrMatrix::BlockedMultiply) share this contract
// through AccumulateRows: each output element is summed over the same KC-deep
// slabs, in ascending k, with this tier's rounding, so for finite B it is
// bitwise the GemmBlocked result on the densified A. They skip structural
// zeros: a skipped 0 * b adds exactly +0 when b is finite, but a NaN/Inf in
// row p of B reaches only the output rows whose A row stores column p.
#ifndef GCON_LINALG_GEMM_KERNELS_H_
#define GCON_LINALG_GEMM_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "linalg/matrix.h"

namespace gcon {
namespace internal {

// Blocking parameters (doubles): KC x NR B-strips stay in L1, the packed
// MC x KC A-block in L2, a KC x NC B-panel in L3. MR x NR is the register
// tile; the AVX2 kernel uses the full 4 x 8 (8 YMM accumulators), the
// portable kernel reads the same packed layout.
inline constexpr std::size_t kGemmMR = 4;
inline constexpr std::size_t kGemmNR = 8;
inline constexpr std::size_t kGemmMC = 128;
inline constexpr std::size_t kGemmKC = 256;
inline constexpr std::size_t kGemmNC = 4096;

/// C = alpha * op(A) * op(B) + beta * C where op transposes when the flag
/// is set. Shapes after op: (m x k) * (k x n) -> C (m x n); `c` must
/// already have that shape. beta == 0 overwrites C (existing contents,
/// including NaN, are ignored per BLAS convention).
void GemmBlocked(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, double beta, Matrix* c);

/// The seed repository's i-k-j triple loop, kept verbatim (minus the
/// zero-operand skip) as the reference the blocked kernel is tested and
/// benchmarked against. Not used on any hot path.
void GemmReference(double alpha, const Matrix& a, const Matrix& b, double beta,
                   Matrix* c);

/// True when the AVX2+FMA micro-kernel is active on this machine (exposed
/// for diagnostics/benchmark labels).
bool GemmUsesAvx2();

/// y[0..n) += sum over t < count of a[t] * B(rows[t], 0..n), n = b.cols(),
/// adding the terms in ascending t and rounding each like the active
/// micro-kernel: an FMA under AVX2+FMA, a multiply then an add otherwise.
/// Summing one KC-deep slab's stored entries through this from +0 gives
/// that slab's GemmBlocked accumulator exactly, since each skipped term
/// 0 * b adds +0 for finite b.
void AccumulateRows(const double* a, const std::int32_t* rows,
                    std::size_t count, const Matrix& b, double* y);

}  // namespace internal
}  // namespace gcon

#endif  // GCON_LINALG_GEMM_KERNELS_H_
