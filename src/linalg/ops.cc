#include "linalg/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/parallel.h"
#include "linalg/gemm_kernels.h"

namespace gcon {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  internal::GemmBlocked(1.0, a, /*trans_a=*/false, b, /*trans_b=*/false, 0.0,
                        &c);
  return c;
}

void Gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
          Matrix* c) {
  internal::GemmBlocked(alpha, a, /*trans_a=*/false, b, /*trans_b=*/false,
                        beta, c);
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  internal::GemmBlocked(1.0, a, /*trans_a=*/true, b, /*trans_b=*/false, 0.0,
                        &c);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  internal::GemmBlocked(1.0, a, /*trans_a=*/false, b, /*trans_b=*/true, 0.0,
                        &c);
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  // Cache-blocked: each tile reads a.rows-major and writes t.rows-major
  // within an L1-resident square; blocks are row-tiles of the output.
  constexpr std::size_t kTile = 64;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  auto tiles = [&](int jt) {
    const std::size_t j0 = static_cast<std::size_t>(jt) * kTile;
    const std::size_t j1 = std::min(j0 + kTile, n);
    for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
      const std::size_t i1 = std::min(i0 + kTile, m);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* arow = a.RowPtr(i);
        for (std::size_t j = j0; j < j1; ++j) {
          t(j, i) = arow[j];
        }
      }
    }
  };
  ParallelBlocks(static_cast<int>((n + kTile - 1) / kTile),
                 static_cast<std::int64_t>(a.size()), tiles);
  return t;
}

void AxpyInPlace(double alpha, const Matrix& b, Matrix* a) {
  GCON_CHECK_EQ(a->rows(), b.rows());
  GCON_CHECK_EQ(a->cols(), b.cols());
  double* ad = a->data();
  const double* bd = b.data();
  for (std::size_t k = 0; k < a->size(); ++k) {
    ad[k] += alpha * bd[k];
  }
}

void ScaleInPlace(double alpha, Matrix* a) {
  double* ad = a->data();
  for (std::size_t k = 0; k < a->size(); ++k) {
    ad[k] *= alpha;
  }
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  GCON_CHECK_EQ(a.rows(), b.rows());
  GCON_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), a.cols());
  for (std::size_t k = 0; k < a.size(); ++k) {
    c.data()[k] = a.data()[k] * b.data()[k];
  }
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  AxpyInPlace(1.0, b, &c);
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  AxpyInPlace(-1.0, b, &c);
  return c;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  return ConcatCols(std::vector<Matrix>{a, b});
}

Matrix ConcatCols(const std::vector<Matrix>& blocks) {
  GCON_CHECK(!blocks.empty());
  const std::size_t rows = blocks.front().rows();
  std::size_t cols = 0;
  for (const Matrix& b : blocks) {
    GCON_CHECK_EQ(b.rows(), rows) << "concat: row mismatch";
    cols += b.cols();
  }
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* dst = out.RowPtr(i);
    for (const Matrix& b : blocks) {
      const double* src = b.RowPtr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        *dst++ = src[j];
      }
    }
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<int>& index) {
  Matrix out(index.size(), a.cols());
  for (std::size_t i = 0; i < index.size(); ++i) {
    GCON_CHECK_GE(index[i], 0);
    GCON_CHECK_LT(static_cast<std::size_t>(index[i]), a.rows());
    const double* src = a.RowPtr(static_cast<std::size_t>(index[i]));
    double* dst = out.RowPtr(i);
    for (std::size_t j = 0; j < a.cols(); ++j) dst[j] = src[j];
  }
  return out;
}

double FrobeniusNorm(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    acc += a.data()[k] * a.data()[k];
  }
  return std::sqrt(acc);
}

double DotAll(const Matrix& a, const Matrix& b) {
  GCON_CHECK_EQ(a.rows(), b.rows());
  GCON_CHECK_EQ(a.cols(), b.cols());
  double acc = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    acc += a.data()[k] * b.data()[k];
  }
  return acc;
}

double RowNorm2(const Matrix& a, std::size_t i) {
  const double* row = a.RowPtr(i);
  double acc = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    acc += row[j] * row[j];
  }
  return std::sqrt(acc);
}

double RowSum(const Matrix& a, std::size_t i) {
  const double* row = a.RowPtr(i);
  double acc = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) acc += row[j];
  return acc;
}

double ColSum(const Matrix& a, std::size_t j) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) acc += a(i, j);
  return acc;
}

void RowL2NormalizeInPlace(Matrix* a, double eps) {
  for (std::size_t i = 0; i < a->rows(); ++i) {
    const double norm = RowNorm2(*a, i);
    if (norm <= eps) continue;
    double* row = a->RowPtr(i);
    const double inv = 1.0 / norm;
    for (std::size_t j = 0; j < a->cols(); ++j) row[j] *= inv;
  }
}

std::size_t RowArgMax(const Matrix& a, std::size_t i) {
  GCON_CHECK_GT(a.cols(), 0u);
  const double* row = a.RowPtr(i);
  std::size_t best = 0;
  for (std::size_t j = 1; j < a.cols(); ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

double Dot(const std::vector<double>& x, const std::vector<double>& y) {
  GCON_CHECK_EQ(x.size(), y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double Norm2(const std::vector<double>& x) { return std::sqrt(Dot(x, x)); }

double Norm1(const std::vector<double>& x) {
  double acc = 0.0;
  for (double v : x) acc += std::abs(v);
  return acc;
}

void Axpy(double alpha, const std::vector<double>& y, std::vector<double>* x) {
  GCON_CHECK_EQ(x->size(), y.size());
  for (std::size_t i = 0; i < x->size(); ++i) {
    (*x)[i] += alpha * y[i];
  }
}

}  // namespace gcon
