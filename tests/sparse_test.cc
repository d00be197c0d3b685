#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>

#include "linalg/ops.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Random sparse matrix with ~density fraction of nonzeros, built two ways
// (dense + builder) for cross-checking.
struct SparsePair {
  CsrMatrix sparse;
  Matrix dense;
};

SparsePair RandomSparse(std::size_t rows, std::size_t cols, double density,
                        Rng* rng) {
  CooBuilder builder(rows, cols);
  Matrix dense(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng->Bernoulli(density)) {
        const double v = rng->Uniform(-2.0, 2.0);
        builder.Add(i, j, v);
        dense(i, j) = v;
      }
    }
  }
  return {builder.Build(), std::move(dense)};
}

TEST(CooBuilder, BuildsCanonicalCsr) {
  CooBuilder builder(3, 3);
  builder.Add(2, 1, 1.0);
  builder.Add(0, 2, 3.0);
  builder.Add(0, 0, 2.0);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
  // Column indices strictly increasing per row.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::int64_t k = m.row_ptr()[i] + 1; k < m.row_ptr()[i + 1]; ++k) {
      EXPECT_LT(m.col_idx()[static_cast<std::size_t>(k - 1)],
                m.col_idx()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(CooBuilder, MergesDuplicates) {
  CooBuilder builder(2, 2);
  builder.Add(1, 1, 1.5);
  builder.Add(1, 1, 2.5);
  builder.Add(1, 1, -1.0);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
}

TEST(CooBuilder, EmptyMatrix) {
  CooBuilder builder(4, 4);
  CsrMatrix m = builder.Build();
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_DOUBLE_EQ(m.At(2, 3), 0.0);
  const Matrix y = m.Multiply(Matrix(4, 2, 1.0));
  EXPECT_DOUBLE_EQ(FrobeniusNorm(y), 0.0);
}

TEST(CsrMatrix, ToDenseRoundTrip) {
  Rng rng(31);
  const auto [sparse, dense] = RandomSparse(8, 6, 0.3, &rng);
  EXPECT_TRUE(sparse.ToDense().AllClose(dense));
}

TEST(CsrMatrix, FromDenseIsCanonical) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix dense{{0.0, 2.0, -0.0, 3.0},
                     {0.0, 0.0, 0.0, 0.0},
                     {nan, 0.0, -1.0, 0.0}};
  const CsrMatrix m = CsrMatrix::FromDense(dense);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  // Both signed zeros are dropped; NaN compares unequal to 0 and is kept.
  EXPECT_EQ(m.row_ptr(), (std::vector<std::int64_t>{0, 2, 2, 4}));
  EXPECT_EQ(m.col_idx(), (std::vector<std::int32_t>{1, 3, 0, 2}));
  EXPECT_EQ(m.values()[0], 2.0);
  EXPECT_EQ(m.values()[1], 3.0);
  EXPECT_TRUE(std::isnan(m.values()[2]));
  EXPECT_EQ(m.values()[3], -1.0);
}

TEST(CsrMatrix, FromDenseMatchesCooBuilder) {
  Rng rng(41);
  const auto [sparse, dense] = RandomSparse(40, 300, 0.05, &rng);
  const CsrMatrix m = CsrMatrix::FromDense(dense);
  EXPECT_EQ(m.row_ptr(), sparse.row_ptr());
  EXPECT_EQ(m.col_idx(), sparse.col_idx());
  EXPECT_EQ(m.values(), sparse.values());
}

TEST(CsrMatrix, FromDenseOfEmptyAndZeroMatrices) {
  EXPECT_EQ(CsrMatrix::FromDense(Matrix()).nnz(), 0u);
  const CsrMatrix zeros = CsrMatrix::FromDense(Matrix(5, 7));
  EXPECT_EQ(zeros.rows(), 5u);
  EXPECT_EQ(zeros.nnz(), 0u);
  EXPECT_EQ(zeros.row_ptr(), std::vector<std::int64_t>(6, 0));
}

TEST(CsrMatrix, FromDenseIfSparseStopsAboveTheDensity) {
  Matrix dense(4, 10);
  for (std::size_t i = 0; i < 4; ++i) dense(i, i) = 1.0;  // 4 of 40 = 0.1
  const std::optional<CsrMatrix> at = CsrMatrix::FromDenseIfSparse(dense, 0.1);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->nnz(), 4u);
  EXPECT_FALSE(CsrMatrix::FromDenseIfSparse(dense, 0.09).has_value());
  EXPECT_FALSE(
      CsrMatrix::FromDenseIfSparse(Matrix(3, 3, 1.0), 0.5).has_value());
}

TEST(CsrMatrix, SpmmMatchesDense) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    const auto [sparse, dense] = RandomSparse(12, 9, 0.25, &rng);
    Matrix x(9, 4);
    for (std::size_t k = 0; k < x.size(); ++k) {
      x.data()[k] = rng.Uniform(-1.0, 1.0);
    }
    EXPECT_TRUE(sparse.Multiply(x).AllClose(MatMul(dense, x), 1e-10));
  }
}

TEST(CsrMatrix, SpmvMatchesDense) {
  Rng rng(41);
  const auto [sparse, dense] = RandomSparse(10, 10, 0.3, &rng);
  std::vector<double> x(10);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  const auto y_sparse = sparse.Multiply(x);
  Matrix x_column(x.size(), 1);
  for (std::size_t i = 0; i < x.size(); ++i) x_column(i, 0) = x[i];
  const Matrix y_dense = MatMul(dense, x_column);
  ASSERT_EQ(y_sparse.size(), y_dense.rows());
  for (std::size_t i = 0; i < y_sparse.size(); ++i) {
    EXPECT_NEAR(y_sparse[i], y_dense(i, 0), 1e-10);
  }
}

TEST(CsrMatrix, RowSumAndColSum) {
  CooBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(0, 2, 2.0);
  builder.Add(2, 0, 4.0);
  CsrMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(m.RowSum(0), 3.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 0.0);
  EXPECT_DOUBLE_EQ(m.ColSum(0), 5.0);
  EXPECT_DOUBLE_EQ(m.ColSum(1), 0.0);
  EXPECT_EQ(m.RowNnz(0), 2u);
  EXPECT_EQ(m.RowNnz(1), 0u);
}

TEST(CsrMatrix, TransposedMatchesDenseTranspose) {
  Rng rng(43);
  const auto [sparse, dense] = RandomSparse(7, 11, 0.3, &rng);
  EXPECT_TRUE(sparse.Transposed().ToDense().AllClose(Transpose(dense)));
}

TEST(CsrMatrix, ScaleRows) {
  Rng rng(47);
  auto [sparse, dense] = RandomSparse(5, 5, 0.4, &rng);
  const std::vector<double> scale = {1.0, 2.0, 0.0, -1.0, 0.5};
  sparse.ScaleRows(scale);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(sparse.At(i, j), dense(i, j) * scale[i], 1e-12);
    }
  }
}

// Property: SpMM distributes over input columns (each output column depends
// only on the matching input column).
class SpmmProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpmmProperty, ColumnIndependence) {
  Rng rng(static_cast<std::uint64_t>(100 + GetParam()));
  const auto [sparse, dense] = RandomSparse(15, 15, 0.2, &rng);
  (void)dense;
  Matrix x(15, 3);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  const Matrix full = sparse.Multiply(x);
  for (std::size_t j = 0; j < 3; ++j) {
    Matrix col(15, 1);
    for (std::size_t i = 0; i < 15; ++i) col(i, 0) = x(i, j);
    const Matrix yj = sparse.Multiply(col);
    for (std::size_t i = 0; i < 15; ++i) {
      EXPECT_NEAR(yj(i, 0), full(i, j), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpmmProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace gcon
