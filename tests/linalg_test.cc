#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "rng/rng.h"

namespace gcon {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (std::size_t k = 0; k < m.size(); ++k) {
    m.data()[k] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

// Naive O(mnk) reference product.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += a(i, p) * b(p, j);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t k = 0; k < m.size(); ++k) {
    EXPECT_EQ(m.data()[k], 0.0);
  }
  m(1, 2) = 5.0;
  EXPECT_EQ(m.At(1, 2), 5.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, FillAndResize) {
  Matrix m(2, 2, 7.0);
  EXPECT_EQ(m(1, 1), 7.0);
  m.Fill(-1.0);
  EXPECT_EQ(m(0, 0), -1.0);
  m.Resize(3, 1);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_EQ(m(2, 0), 0.0);
}

TEST(Matrix, RowAndColCopy) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const auto row = m.RowCopy(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[2], 6.0);
  const auto col = m.ColCopy(0);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col[1], 4.0);
}

TEST(Matrix, AllClose) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{1.0, 2.0 + 1e-12}};
  Matrix c{{1.0, 2.1}};
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(Matrix(2, 1)));
}

TEST(Ops, MatMulMatchesNaive) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t m = 1 + rng.UniformInt(20);
    const std::size_t k = 1 + rng.UniformInt(20);
    const std::size_t n = 1 + rng.UniformInt(20);
    const Matrix a = RandomMatrix(m, k, &rng);
    const Matrix b = RandomMatrix(k, n, &rng);
    EXPECT_TRUE(MatMul(a, b).AllClose(NaiveMatMul(a, b), 1e-10));
  }
}

TEST(Ops, MatMulTransAMatchesNaive) {
  Rng rng(11);
  const Matrix a = RandomMatrix(9, 5, &rng);
  const Matrix b = RandomMatrix(9, 7, &rng);
  EXPECT_TRUE(MatMulTransA(a, b).AllClose(NaiveMatMul(Transpose(a), b), 1e-10));
}

TEST(Ops, MatMulTransBMatchesNaive) {
  Rng rng(13);
  const Matrix a = RandomMatrix(6, 5, &rng);
  const Matrix b = RandomMatrix(8, 5, &rng);
  EXPECT_TRUE(MatMulTransB(a, b).AllClose(NaiveMatMul(a, Transpose(b)), 1e-10));
}

TEST(Ops, GemmAccumulates) {
  Rng rng(17);
  const Matrix a = RandomMatrix(4, 3, &rng);
  const Matrix b = RandomMatrix(3, 5, &rng);
  Matrix c = RandomMatrix(4, 5, &rng);
  const Matrix c0 = c;
  Gemm(2.0, a, b, 0.5, &c);
  Matrix expected = NaiveMatMul(a, b);
  ScaleInPlace(2.0, &expected);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    expected.data()[k] += 0.5 * c0.data()[k];
  }
  EXPECT_TRUE(c.AllClose(expected, 1e-10));
}

TEST(Ops, TransposeTwiceIsIdentity) {
  Rng rng(19);
  const Matrix a = RandomMatrix(4, 7, &rng);
  EXPECT_TRUE(Transpose(Transpose(a)).AllClose(a));
}

TEST(Ops, AddSubHadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_TRUE(Add(a, b).AllClose(Matrix{{6, 8}, {10, 12}}));
  EXPECT_TRUE(Sub(b, a).AllClose(Matrix{{4, 4}, {4, 4}}));
  EXPECT_TRUE(Hadamard(a, b).AllClose(Matrix{{5, 12}, {21, 32}}));
}

TEST(Ops, ConcatCols) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{9}, {8}};
  const Matrix c = ConcatCols(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_EQ(c(0, 2), 9.0);
  EXPECT_EQ(c(1, 0), 3.0);
  const Matrix three = ConcatCols({a, b, a});
  EXPECT_EQ(three.cols(), 5u);
  EXPECT_EQ(three(1, 4), 4.0);
}

TEST(Ops, GatherRows) {
  Matrix a{{1, 1}, {2, 2}, {3, 3}};
  const Matrix g = GatherRows(a, {2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g(0, 0), 3.0);
  EXPECT_EQ(g(1, 0), 1.0);
  EXPECT_EQ(g(2, 1), 3.0);
}

TEST(Ops, NormsAndReductions) {
  Matrix a{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
  EXPECT_DOUBLE_EQ(RowNorm2(a, 0), 5.0);
  EXPECT_DOUBLE_EQ(RowNorm2(a, 1), 0.0);
  EXPECT_DOUBLE_EQ(RowSum(a, 0), 7.0);
  EXPECT_DOUBLE_EQ(ColSum(a, 1), 4.0);
  Matrix b{{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(DotAll(a, b), 7.0);
}

TEST(Ops, RowL2NormalizeMakesUnitRows) {
  Rng rng(23);
  Matrix a = RandomMatrix(10, 6, &rng);
  RowL2NormalizeInPlace(&a);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(RowNorm2(a, i), 1.0, 1e-12);
  }
}

TEST(Ops, RowL2NormalizeSkipsZeroRows) {
  Matrix a(2, 3);
  a(0, 0) = 2.0;
  RowL2NormalizeInPlace(&a);
  EXPECT_NEAR(RowNorm2(a, 0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(RowNorm2(a, 1), 0.0);  // untouched, no NaN
}

TEST(Ops, RowArgMaxBreaksTiesLow) {
  Matrix a{{1.0, 3.0, 3.0}};
  EXPECT_EQ(RowArgMax(a, 0), 1u);
}

TEST(Ops, VectorHelpers) {
  const std::vector<double> x = {3.0, -4.0};
  EXPECT_DOUBLE_EQ(Norm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Norm1(x), 7.0);
  EXPECT_DOUBLE_EQ(Dot(x, {1.0, 1.0}), -1.0);
  std::vector<double> y = {1.0, 1.0};
  Axpy(2.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], -7.0);
}

// Property sweep: associativity-ish identity (AB)x == A(Bx) on random data.
class MatMulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatMulProperty, ProductVectorConsistency) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 2 + rng.UniformInt(15);
  const std::size_t k = 2 + rng.UniformInt(15);
  const std::size_t n = 2 + rng.UniformInt(15);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  const Matrix x = RandomMatrix(n, 1, &rng);
  const Matrix lhs = MatMul(MatMul(a, b), x);
  const Matrix rhs = MatMul(a, MatMul(b, x));
  ASSERT_EQ(lhs.rows(), m);
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace gcon
