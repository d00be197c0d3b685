#include "sparse/csr_matrix.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/parallel.h"
#include "linalg/gemm_kernels.h"

namespace gcon {
namespace {

// Runs row(i), which writes output row i, for every row of a SpMM whose
// inner loops do `work` multiply-adds, in 256-row blocks.
template <typename RowFn>
void ForEachRowChunk(std::size_t rows, std::size_t work, const RowFn& row) {
  constexpr std::size_t kRowChunk = 256;
  auto chunk = [&](int c) {
    const std::size_t i0 = static_cast<std::size_t>(c) * kRowChunk;
    for (std::size_t i = i0; i < std::min(i0 + kRowChunk, rows); ++i) row(i);
  };
  ParallelBlocks(static_cast<int>((rows + kRowChunk - 1) / kRowChunk),
                 static_cast<std::int64_t>(work), chunk);
}

}  // namespace

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::int64_t> row_ptr,
                     std::vector<std::int32_t> col_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  GCON_CHECK_EQ(row_ptr_.size(), rows_ + 1);
  GCON_CHECK_EQ(col_idx_.size(), values_.size());
  GCON_CHECK_EQ(static_cast<std::size_t>(row_ptr_.back()), values_.size());
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  return *FromDenseIfSparse(dense, 1.0);
}

std::optional<CsrMatrix> CsrMatrix::FromDenseIfSparse(const Matrix& dense,
                                                      double max_density) {
  const std::size_t rows = dense.rows();
  const std::size_t cols = dense.cols();
  GCON_CHECK_LE(cols, static_cast<std::size_t>(INT32_MAX));
  const double max_nnz = max_density * static_cast<double>(dense.size());
  std::vector<std::int64_t> row_ptr(rows + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (values.size() < pos + cols) {
      const std::size_t grown = std::max(2 * values.size(), pos + cols);
      col_idx.resize(grown);
      values.resize(grown);
    }
    // Branch-free: every entry is written at the next free slot, which
    // only advances past a nonzero, so one pass reads the input once.
    const double* row = dense.RowPtr(i);
    std::int32_t* cdst = col_idx.data();
    double* vdst = values.data();
    for (std::size_t j = 0; j < cols; ++j) {
      cdst[pos] = static_cast<std::int32_t>(j);
      vdst[pos] = row[j];
      pos += row[j] != 0.0;
    }
    row_ptr[i + 1] = static_cast<std::int64_t>(pos);
    if (static_cast<double>(pos) > max_nnz) return std::nullopt;
  }
  col_idx.resize(pos);
  values.resize(pos);
  col_idx.shrink_to_fit();
  values.shrink_to_fit();
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

double CsrMatrix::At(std::size_t i, std::size_t j) const {
  GCON_CHECK_LT(i, rows_);
  GCON_CHECK_LT(j, cols_);
  const auto begin = col_idx_.begin() + row_ptr_[i];
  const auto end = col_idx_.begin() + row_ptr_[i + 1];
  const auto it = std::lower_bound(begin, end, static_cast<std::int32_t>(j));
  if (it == end || *it != static_cast<std::int32_t>(j)) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

double CsrMatrix::RowSum(std::size_t i) const {
  double acc = 0.0;
  for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
    acc += values_[static_cast<std::size_t>(k)];
  }
  return acc;
}

double CsrMatrix::ColSum(std::size_t j) const {
  double acc = 0.0;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (col_idx_[k] == static_cast<std::int32_t>(j)) acc += values_[k];
  }
  return acc;
}

Matrix CsrMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      dense(i, static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])) =
          values_[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

CsrMatrix CsrMatrix::GatherRows(const std::vector<int>& index) const {
  std::vector<std::int64_t> row_ptr(index.size() + 1, 0);
  for (std::size_t r = 0; r < index.size(); ++r) {
    const std::size_t i = static_cast<std::size_t>(index[r]);
    GCON_CHECK_LT(i, rows_);
    row_ptr[r + 1] = row_ptr[r] + static_cast<std::int64_t>(RowNnz(i));
  }
  std::vector<std::int32_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  for (std::size_t r = 0; r < index.size(); ++r) {
    const std::size_t i = static_cast<std::size_t>(index[r]);
    std::copy(col_idx_.begin() + row_ptr_[i],
              col_idx_.begin() + row_ptr_[i + 1], col_idx.begin() + row_ptr[r]);
    std::copy(values_.begin() + row_ptr_[i], values_.begin() + row_ptr_[i + 1],
              values.begin() + row_ptr[r]);
  }
  return CsrMatrix(index.size(), cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

bool CsrMatrix::IsCanonicalNonzero() const {
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const std::size_t kk = static_cast<std::size_t>(k);
      const bool sorted = k == row_ptr_[i] || col_idx_[kk - 1] < col_idx_[kk];
      if (col_idx_[kk] < 0 || static_cast<std::size_t>(col_idx_[kk]) >= cols_ ||
          values_[kk] == 0.0 || !sorted) {
        return false;
      }
    }
  }
  return true;
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  GCON_CHECK_EQ(cols_, x.rows()) << "spmm: dim mismatch";
  const std::size_t d = x.cols();
  Matrix y(rows_, d);
  ForEachRowChunk(rows_, nnz() * d, [&](std::size_t i) {
    double* yrow = y.RowPtr(i);
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      const double v = values_[static_cast<std::size_t>(k)];
      const double* xrow =
          x.RowPtr(static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]));
      for (std::size_t j = 0; j < d; ++j) {
        yrow[j] += v * xrow[j];
      }
    }
  });
  return y;
}

void CsrMatrix::SpmmAxpby(double a, const Matrix& z, double b, const Matrix& x,
                          Matrix* out) const {
  GCON_CHECK_EQ(cols_, z.rows()) << "spmm: dim mismatch";
  GCON_CHECK_EQ(x.rows(), rows_);
  GCON_CHECK_EQ(x.cols(), z.cols());
  GCON_CHECK(out != &z && out != &x) << "SpmmAxpby: out must not alias z/x";
  const std::size_t d = z.cols();
  if (out->rows() != rows_ || out->cols() != d) {
    out->Resize(rows_, d);
  }
  const auto z_row = [&z](std::int32_t col) {
    return z.RowPtr(static_cast<std::size_t>(col));
  };
  ForEachRowChunk(rows_, nnz() * d, [&](std::size_t i) {
    const std::size_t k0 = static_cast<std::size_t>(row_ptr_[i]);
    SpmmAxpbyRow(col_idx_.data() + k0, values_.data() + k0, RowNnz(i), z_row,
                 a, x.RowPtr(i), b, d, out->RowPtr(i));
  });
}

Matrix CsrMatrix::BlockedMultiply(const Matrix& b) const {
  GCON_CHECK_EQ(cols_, b.rows()) << "spmm: dim mismatch";
  const std::size_t n = b.cols();
  Matrix c(rows_, n);
  std::vector<double> slab(n);
  for (std::size_t i = 0; i < rows_; ++i) {
    double* crow = c.RowPtr(i);
    std::size_t k = static_cast<std::size_t>(row_ptr_[i]);
    const std::size_t end = static_cast<std::size_t>(row_ptr_[i + 1]);
    for (bool first = true; k < end; first = false) {
      // The stored entries of one KC-deep slab of GemmBlocked's pc loop.
      // Its accumulator starts from +0 and is then added to C; the first
      // slab can accumulate in C itself, which is still +0. Slabs with no
      // stored entry would add +0, which never changes C.
      const std::size_t slab_end =
          (static_cast<std::size_t>(col_idx_[k]) / internal::kGemmKC + 1) *
          internal::kGemmKC;
      std::size_t stop = k;
      while (stop < end && static_cast<std::size_t>(col_idx_[stop]) < slab_end) {
        ++stop;
      }
      if (first) {
        internal::AccumulateRows(&values_[k], &col_idx_[k], stop - k, b, crow);
      } else {
        std::fill(slab.begin(), slab.end(), 0.0);
        internal::AccumulateRows(&values_[k], &col_idx_[k], stop - k, b,
                                 slab.data());
        for (std::size_t j = 0; j < n; ++j) crow[j] += slab[j];
      }
      k = stop;
    }
  }
  return c;
}

std::vector<double> CsrMatrix::Multiply(const std::vector<double>& x) const {
  GCON_CHECK_EQ(cols_, x.size());
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[i] = acc;
  }
  return y;
}

CsrMatrix CsrMatrix::Transposed() const {
  CooBuilder builder(cols_, rows_);
  builder.Reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      builder.Add(static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)]),
                  i, values_[static_cast<std::size_t>(k)]);
    }
  }
  return builder.Build();
}

void CsrMatrix::ScaleRows(const std::vector<double>& scale) {
  GCON_CHECK_EQ(scale.size(), rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] *= scale[i];
    }
  }
}

void CooBuilder::Reserve(std::size_t n) { entries_.reserve(n); }

void CooBuilder::Add(std::size_t i, std::size_t j, double value) {
  GCON_CHECK_LT(i, rows_);
  GCON_CHECK_LT(j, cols_);
  entries_.push_back(Entry{static_cast<std::int32_t>(i),
                           static_cast<std::int32_t>(j), value});
}

CsrMatrix CooBuilder::Build() {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<std::int64_t> row_ptr(rows_ + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(entries_.size());
  values.reserve(entries_.size());
  for (std::size_t k = 0; k < entries_.size();) {
    const Entry& e = entries_[k];
    double acc = 0.0;
    std::size_t k2 = k;
    while (k2 < entries_.size() && entries_[k2].row == e.row &&
           entries_[k2].col == e.col) {
      acc += entries_[k2].value;
      ++k2;
    }
    col_idx.push_back(e.col);
    values.push_back(acc);
    row_ptr[static_cast<std::size_t>(e.row) + 1] += 1;
    k = k2;
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    row_ptr[i + 1] += row_ptr[i];
  }
  entries_.clear();
  entries_.shrink_to_fit();
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace gcon
