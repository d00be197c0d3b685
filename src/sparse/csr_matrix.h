// Compressed sparse row matrix.
//
// Used for the message-passing matrix Ã = D⁻¹(A + I), the perturbed
// adjacency matrices of the DP baselines, and the node-feature matrix X
// (a Graph's feature store and the encoder's sparse input).
// Construction goes through CooBuilder (which sorts and merges duplicates),
// FromDense, or arrays a builder already emits in canonical order
// (BuildTransition); all give canonical CSR (row-major, column indices
// strictly increasing within a row).
#ifndef GCON_SPARSE_CSR_MATRIX_H_
#define GCON_SPARSE_CSR_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/matrix.h"

namespace gcon {

class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) { row_ptr_.push_back(0); }

  /// Takes ownership of canonical CSR arrays. row_ptr has rows+1 entries;
  /// col_idx/values have row_ptr.back() entries.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::int64_t> row_ptr,
            std::vector<std::int32_t> col_idx, std::vector<double> values);

  /// The nonzero entries of `dense` in canonical order. An entry is stored
  /// when it compares unequal to 0.0, so ±0 are dropped and NaN is kept.
  static CsrMatrix FromDense(const Matrix& dense);

  /// FromDense in one pass over `dense`, or nullopt once more than
  /// max_density * dense.size() entries would be stored (the pass stops at
  /// the end of the row where that happens).
  static std::optional<CsrMatrix> FromDenseIfSparse(const Matrix& dense,
                                                    double max_density);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Number of stored entries in row i.
  std::size_t RowNnz(std::size_t i) const {
    return static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i]);
  }

  /// Value at (i, j); zero when not stored. O(log nnz(i)).
  double At(std::size_t i, std::size_t j) const;

  /// Sum of stored values in row i.
  double RowSum(std::size_t i) const;

  /// Sum over column j (O(nnz) per call; test/diagnostic use).
  double ColSum(std::size_t j) const;

  /// Dense copy (test/diagnostic use; beware n² memory).
  Matrix ToDense() const;

  /// The rows `index` (in that order, repeats allowed) as a new matrix.
  CsrMatrix GatherRows(const std::vector<int>& index) const;

  /// True when the row-major entries are canonical: column indices strictly
  /// increasing within each row and in range, and no stored entry equal to
  /// 0.0 — the form FromDense produces.
  bool IsCanonicalNonzero() const;

  /// Y = this * X (SpMM). X: cols() x d, result rows() x d.
  Matrix Multiply(const Matrix& x) const;

  /// Fused SpMM update: out = a * (this * z) + b * x, one pass over the
  /// stored entries with no temporary. This is one APPR round
  /// z' <- (1-alpha) Ã z + alpha x as a single kernel instead of
  /// Multiply + ScaleInPlace + AxpyInPlace (which allocates a fresh matrix
  /// and streams it three times). Per-element arithmetic matches the
  /// three-op sequence bit-for-bit: a * sum + b * x with the same
  /// accumulation order. Every row runs SpmmAxpbyRow below. `out` is
  /// resized to rows() x z.cols(); it must not alias `z` or `x` (the output
  /// row doubles as the accumulator).
  void SpmmAxpby(double a, const Matrix& z, double b, const Matrix& x,
                 Matrix* out) const;

  /// C = this * B with the blocked GEMM's bits: when B is finite, every
  /// element equals GemmBlocked(1, ToDense(), false, B, false, 0, &C)
  /// bitwise (see linalg/gemm_kernels.h). Unlike Multiply, which sums a
  /// row in one pass, this sums KC-deep column slabs through
  /// internal::AccumulateRows. For this^T * B, call it on Transposed().
  Matrix BlockedMultiply(const Matrix& b) const;

  /// y = this * x (SpMV).
  std::vector<double> Multiply(const std::vector<double>& x) const;

  /// Returns the transpose as a new CsrMatrix.
  CsrMatrix Transposed() const;

  /// Scales each row by scale[i] (in place): this_ij *= scale[i].
  void ScaleRows(const std::vector<double>& scale);

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  std::vector<double> values_;
};

/// One output row of SpmmAxpby:
///   out = a * sum_k values[k] * row(cols[k]) + b * x,
/// with the sum accumulated in `out` itself, from +0, in entry order (CSR
/// order for a canonical row). `row(col)` returns the length-d row of the
/// right-hand operand for column `col`; `x` and every such row have length d
/// and must not alias `out`. Serving calls this for one row at a time, so
/// its answers carry SpmmAxpby's exact bits.
template <typename RowSource>
void SpmmAxpbyRow(const std::int32_t* cols, const double* values,
                  std::size_t count, const RowSource& row, double a,
                  const double* x, double b, std::size_t d, double* out) {
  for (std::size_t j = 0; j < d; ++j) out[j] = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const double v = values[k];
    const double* zrow = row(cols[k]);
    for (std::size_t j = 0; j < d; ++j) out[j] += v * zrow[j];
  }
  for (std::size_t j = 0; j < d; ++j) out[j] = a * out[j] + b * x[j];
}

/// Accumulates (i, j, value) triplets and builds canonical CSR. Duplicate
/// coordinates are summed.
class CooBuilder {
 public:
  CooBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void Add(std::size_t i, std::size_t j, double value);
  std::size_t entry_count() const { return entries_.size(); }

  /// Pre-allocates room for `n` triplets. Call before a bulk Add loop whose
  /// size is known (adjacency builds: 2|E| + n) to avoid
  /// entry-by-entry vector growth.
  void Reserve(std::size_t n);

  /// Builds the CSR matrix; the builder is left empty afterwards.
  CsrMatrix Build();

 private:
  struct Entry {
    std::int32_t row;
    std::int32_t col;
    double value;
  };
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Entry> entries_;
};

}  // namespace gcon

#endif  // GCON_SPARSE_CSR_MATRIX_H_
