#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/ops.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optim.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

TEST(Activations, ReluClampsNegative) {
  Matrix m{{-1.0, 0.0, 2.0}};
  ApplyActivationInPlace(Activation::kRelu, &m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 2.0);
}

TEST(Activations, TanhAndSigmoidRange) {
  Matrix m{{-10.0, 0.0, 10.0}};
  Matrix t = m;
  ApplyActivationInPlace(Activation::kTanh, &t);
  EXPECT_NEAR(t(0, 0), -1.0, 1e-6);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
  EXPECT_NEAR(t(0, 2), 1.0, 1e-6);
  Matrix s = m;
  ApplyActivationInPlace(Activation::kSigmoid, &s);
  EXPECT_NEAR(s(0, 0), 0.0, 1e-4);
  EXPECT_DOUBLE_EQ(s(0, 1), 0.5);
  EXPECT_NEAR(s(0, 2), 1.0, 1e-4);
}

TEST(Activations, IdentityNoOp) {
  Matrix m{{-3.0, 5.0}};
  const Matrix copy = m;
  ApplyActivationInPlace(Activation::kIdentity, &m);
  EXPECT_TRUE(m.AllClose(copy));
}

// Derivative-from-output must match the analytic derivative at matched
// points for every activation.
class ActivationDeriv : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationDeriv, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double h = 1e-6;
  for (double x : {-1.5, -0.3, 0.4, 2.0}) {
    Matrix fwd{{x}};
    ApplyActivationInPlace(act, &fwd);
    Matrix deriv;
    ActivationDerivFromOutput(act, fwd, &deriv);
    Matrix lo{{x - h}}, hi{{x + h}};
    ApplyActivationInPlace(act, &lo);
    ApplyActivationInPlace(act, &hi);
    const double fd = (hi(0, 0) - lo(0, 0)) / (2.0 * h);
    EXPECT_NEAR(deriv(0, 0), fd, 1e-5)
        << "activation " << static_cast<int>(act) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(All, ActivationDeriv,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Activations, ByName) {
  EXPECT_EQ(ActivationByName("relu"), Activation::kRelu);
  EXPECT_EQ(ActivationByName("tanh"), Activation::kTanh);
  EXPECT_EQ(ActivationByName("sigmoid"), Activation::kSigmoid);
  EXPECT_EQ(ActivationByName("identity"), Activation::kIdentity);
}

TEST(Loss, SoftmaxRowsSumToOne) {
  Matrix logits{{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}, {100.0, 100.0, 100.0}};
  const Matrix p = Softmax(logits);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GE(p(i, j), 0.0);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Large logits must not overflow.
  EXPECT_NEAR(p(2, 0), 1.0 / 3.0, 1e-12);
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over c classes -> loss = log(c).
  Matrix logits(1, 4);
  const std::vector<int> labels = {2};
  const double loss = SoftmaxCrossEntropy(logits, labels, {0}, nullptr);
  EXPECT_NEAR(loss, std::log(4.0), 1e-12);
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(3);
  Matrix logits(3, 4);
  for (std::size_t k = 0; k < logits.size(); ++k) {
    logits.data()[k] = rng.Uniform(-2.0, 2.0);
  }
  const std::vector<int> labels = {1, 3, 0};
  const std::vector<int> idx = {0, 1, 2};
  Matrix grad;
  SoftmaxCrossEntropy(logits, labels, idx, &grad);
  const double h = 1e-6;
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    for (std::size_t j = 0; j < logits.cols(); ++j) {
      Matrix lo = logits, hi = logits;
      lo(i, j) -= h;
      hi(i, j) += h;
      const double fd = (SoftmaxCrossEntropy(hi, labels, idx, nullptr) -
                         SoftmaxCrossEntropy(lo, labels, idx, nullptr)) /
                        (2.0 * h);
      EXPECT_NEAR(grad(i, j), fd, 1e-6);
    }
  }
}

TEST(Loss, GradientZeroOutsideIndex) {
  Matrix logits(3, 2);
  Matrix grad;
  SoftmaxCrossEntropy(logits, {0, 1, 0}, {1}, &grad);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(grad(0, j), 0.0);
    EXPECT_DOUBLE_EQ(grad(2, j), 0.0);
  }
}

TEST(Optim, AdamMinimizesQuadratic) {
  // f(w) = 0.5 ||w - target||², grad = w - target.
  Matrix w(3, 2);
  Matrix target{{1.0, -2.0}, {0.5, 3.0}, {-1.0, 0.0}};
  Adam::Options options;
  options.learning_rate = 0.1;
  Adam adam(options);
  const std::size_t slot = adam.Register(w);
  for (int iter = 0; iter < 500; ++iter) {
    Matrix grad = Sub(w, target);
    adam.BeginStep();
    adam.Step(slot, grad, &w);
  }
  EXPECT_TRUE(w.AllClose(target, 1e-3));
}

TEST(Optim, SgdMomentumMinimizesQuadratic) {
  Matrix w(2, 2);
  Matrix target{{2.0, -1.0}, {0.0, 4.0}};
  Sgd::Options options;
  options.learning_rate = 0.05;
  options.momentum = 0.9;
  Sgd sgd(options);
  const std::size_t slot = sgd.Register(w);
  for (int iter = 0; iter < 800; ++iter) {
    Matrix grad = Sub(w, target);
    sgd.Step(slot, grad, &w);
  }
  EXPECT_TRUE(w.AllClose(target, 1e-3));
}

TEST(Optim, WeightDecayShrinksParameters) {
  Matrix w(1, 1, 10.0);
  Adam::Options options;
  options.learning_rate = 0.1;
  options.weight_decay = 1.0;
  Adam adam(options);
  const std::size_t slot = adam.Register(w);
  Matrix zero_grad(1, 1);
  for (int iter = 0; iter < 300; ++iter) {
    adam.BeginStep();
    adam.Step(slot, zero_grad, &w);
  }
  EXPECT_NEAR(w(0, 0), 0.0, 0.05);
}

TEST(Mlp, GlorotInitBounded) {
  Matrix w(20, 30);
  GlorotInit(&w, 5);
  const double limit = std::sqrt(6.0 / 50.0);
  double max_abs = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    max_abs = std::max(max_abs, std::abs(w.data()[k]));
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.2 * limit);  // not degenerate
}

TEST(Mlp, GradientsMatchFiniteDifference) {
  MlpOptions options;
  options.dims = {3, 4, 2};
  options.hidden_activation = Activation::kTanh;
  options.seed = 7;
  Mlp mlp(options);
  Rng rng(9);
  Matrix x(5, 3);
  for (std::size_t k = 0; k < x.size(); ++k) {
    x.data()[k] = rng.Uniform(-1.0, 1.0);
  }
  const std::vector<int> labels = {0, 1, 0, 1, 1};
  const std::vector<int> idx = {0, 1, 2, 3, 4};
  std::vector<Matrix> dw, db;
  mlp.LossAndGrads(x, labels, idx, &dw, &db);

  const double h = 1e-6;
  for (int layer = 0; layer < mlp.num_layers(); ++layer) {
    Matrix* w = mlp.mutable_weight(layer);
    // Spot-check a few entries per layer.
    for (std::size_t k = 0; k < std::min<std::size_t>(w->size(), 6); ++k) {
      const double original = w->data()[k];
      w->data()[k] = original + h;
      const double hi = mlp.LossAndGrads(x, labels, idx, &dw, &db);
      // dw was overwritten; recompute gradient at the original point later.
      w->data()[k] = original - h;
      std::vector<Matrix> dw2, db2;
      const double lo = mlp.LossAndGrads(x, labels, idx, &dw2, &db2);
      w->data()[k] = original;
      std::vector<Matrix> dw3, db3;
      mlp.LossAndGrads(x, labels, idx, &dw3, &db3);
      const double fd = (hi - lo) / (2.0 * h);
      EXPECT_NEAR(dw3[static_cast<std::size_t>(layer)].data()[k], fd, 1e-5)
          << "layer " << layer << " entry " << k;
    }
  }
}

TEST(Mlp, LearnsLinearlySeparableData) {
  Rng rng(11);
  const int n = 200;
  Matrix x(static_cast<std::size_t>(n), 2);
  std::vector<int> labels(static_cast<std::size_t>(n));
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(-1.0, 1.0);
    const double b = rng.Uniform(-1.0, 1.0);
    x(static_cast<std::size_t>(i), 0) = a;
    x(static_cast<std::size_t>(i), 1) = b;
    labels[static_cast<std::size_t>(i)] = (a + b > 0.0) ? 1 : 0;
    idx[static_cast<std::size_t>(i)] = i;
  }
  MlpOptions options;
  options.dims = {2, 8, 2};
  options.epochs = 300;
  options.seed = 3;
  Mlp mlp(options);
  mlp.Train(x, labels, idx, {});
  const Matrix logits = mlp.Forward(x);
  EXPECT_GT(Accuracy(logits, labels, idx), 0.95);
}

TEST(Mlp, LearnsXorWithHiddenLayer) {
  // XOR is not linearly separable; requires the hidden layer to work.
  Matrix x{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> idx = {0, 1, 2, 3};
  MlpOptions options;
  options.dims = {2, 8, 2};
  options.epochs = 800;
  options.learning_rate = 0.05;
  options.weight_decay = 0.0;
  options.seed = 21;
  Mlp mlp(options);
  mlp.Train(x, labels, idx, {});
  EXPECT_EQ(mlp.Predict(x), labels);
}

TEST(Mlp, HiddenRepresentationShape) {
  MlpOptions options;
  options.dims = {6, 10, 4, 3};
  Mlp mlp(options);
  Matrix x(5, 6, 0.5);
  EXPECT_EQ(mlp.HiddenRepresentation(x, 1).cols(), 10u);
  EXPECT_EQ(mlp.HiddenRepresentation(x, 2).cols(), 4u);
  EXPECT_EQ(mlp.Forward(x).cols(), 3u);
}

TEST(Mlp, ValidationSelectionKeepsBestWeights) {
  // Train long enough to overfit tiny noise data; with validation-based
  // selection the returned model should be at least as good on val as the
  // final-epoch model would be.
  Rng rng(13);
  const int n = 60;
  Matrix x(static_cast<std::size_t>(n), 4);
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 4; ++j) {
      x(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          rng.Uniform(-1.0, 1.0);
    }
    labels[static_cast<std::size_t>(i)] =
        x(static_cast<std::size_t>(i), 0) > 0 ? 1 : 0;
  }
  std::vector<int> train_idx, val_idx;
  for (int i = 0; i < n; ++i) {
    (i < 40 ? train_idx : val_idx).push_back(i);
  }
  MlpOptions options;
  options.dims = {4, 16, 2};
  options.epochs = 200;
  options.seed = 5;
  Mlp mlp(options);
  mlp.Train(x, labels, train_idx, val_idx);
  const double val_acc = Accuracy(mlp.Forward(x), labels, val_idx);
  EXPECT_GT(val_acc, 0.7);
}

// --- sparse first layer -----------------------------------------------------
// An input at bag-of-words density runs layer 0 as CSR products. Outputs and
// weight gradients must equal, bit for bit, the dense products built from
// the public weights, here on an input wider than one GEMM k-slab (256).

Matrix SparseBagOfWords(std::size_t rows, std::size_t cols, std::uint64_t seed,
                        double density = 0.012) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (rng.Bernoulli(density)) x.data()[k] = rng.Uniform(0.0, 2.0);
  }
  return x;
}

Mlp SparseInputMlp() {
  MlpOptions options;
  options.dims = {600, 16, 8, 3};
  options.seed = 3;
  Mlp mlp(options);
  Rng rng(4);
  for (int l = 0; l < mlp.num_layers(); ++l) {
    Matrix* b = mlp.mutable_bias(l);
    for (std::size_t k = 0; k < b->size(); ++k) {
      b->data()[k] = rng.Uniform(-0.1, 0.1);
    }
  }
  return mlp;
}

// Post-activation output of every layer, through MatMul only.
std::vector<Matrix> DenseForward(const Mlp& mlp, const Matrix& x) {
  std::vector<Matrix> outputs;
  for (int l = 0; l < mlp.num_layers(); ++l) {
    Matrix z = MatMul(l == 0 ? x : outputs.back(), mlp.weight(l));
    for (std::size_t i = 0; i < z.rows(); ++i) {
      for (std::size_t j = 0; j < z.cols(); ++j) z(i, j) += mlp.bias(l)(0, j);
    }
    if (l + 1 < mlp.num_layers()) {
      ApplyActivationInPlace(mlp.options().hidden_activation, &z);
    }
    outputs.push_back(std::move(z));
  }
  return outputs;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Mlp, SparseInputForwardMatchesDenseProductsBitwise) {
  const Mlp mlp = SparseInputMlp();
  const Matrix x = SparseBagOfWords(50, 600, 17);
  const std::vector<Matrix> want = DenseForward(mlp, x);
  EXPECT_TRUE(SameBits(mlp.Forward(x), want[2]));
  EXPECT_TRUE(SameBits(mlp.HiddenRepresentation(x, 1), want[0]));
  EXPECT_TRUE(SameBits(mlp.HiddenRepresentation(x, 2), want[1]));
}

TEST(Mlp, SparseInputWeightGradientsMatchDenseProductsBitwise) {
  const Mlp mlp = SparseInputMlp();
  const Matrix x = SparseBagOfWords(300, 600, 19);  // 300 rows: two slabs
  Rng rng(20);
  std::vector<int> labels(x.rows());
  for (int& label : labels) label = static_cast<int>(rng.UniformInt(3));
  std::vector<int> idx;
  for (int i = 0; i < 300; i += 2) idx.push_back(i);
  std::vector<Matrix> dw, db;
  mlp.LossAndGrads(x, labels, idx, &dw, &db);

  // Backpropagation by hand, with MatMulTransA/MatMulTransB.
  const std::vector<Matrix> outputs = DenseForward(mlp, x);
  Matrix dz;
  SoftmaxCrossEntropy(outputs.back(), labels, idx, &dz);
  for (std::size_t l = outputs.size(); l-- > 0;) {
    EXPECT_TRUE(
        SameBits(dw[l], MatMulTransA(l == 0 ? x : outputs[l - 1], dz)))
        << "layer " << l;
    if (l == 0) break;
    Matrix deriv;
    ActivationDerivFromOutput(mlp.options().hidden_activation, outputs[l - 1],
                              &deriv);
    dz = Hadamard(MatMulTransB(dz, mlp.weight(static_cast<int>(l))), deriv);
  }
}

// A graph's features reach the encoder as CSR; perfbench and the dense
// baselines pass a dense Matrix. Both overloads must give the same bits, on
// either side of the 10% layer-0 density rule: 1.2% (bag of words, CSR
// products) and 20% (TinySpec-like, GEMM).
TEST(Mlp, CsrInputOverloadsMatchDenseOverloadsBitwise) {
  for (const double density : {0.012, 0.2}) {
    SCOPED_TRACE(density);
    const Matrix x = SparseBagOfWords(120, 600, 23, density);
    const CsrMatrix csr = CsrMatrix::FromDense(x);
    Rng rng(24);
    std::vector<int> labels(x.rows());
    for (int& label : labels) label = static_cast<int>(rng.UniformInt(3));
    std::vector<int> train_idx, val_idx;
    for (int i = 0; i < 120; ++i) {
      (i % 3 == 0 ? val_idx : train_idx).push_back(i);
    }

    MlpOptions options = SparseInputMlp().options();
    options.epochs = 12;
    options.eval_every = 2;
    Mlp from_dense(options);
    Mlp from_csr(options);
    EXPECT_EQ(from_dense.Train(x, labels, train_idx, val_idx),
              from_csr.Train(csr, labels, train_idx, val_idx));
    for (int l = 0; l < from_dense.num_layers(); ++l) {
      EXPECT_TRUE(SameBits(from_dense.weight(l), from_csr.weight(l))) << l;
      EXPECT_TRUE(SameBits(from_dense.bias(l), from_csr.bias(l))) << l;
    }
    EXPECT_TRUE(SameBits(from_dense.Forward(x), from_dense.Forward(csr)));
    for (int layer = 1; layer < from_dense.num_layers(); ++layer) {
      EXPECT_TRUE(SameBits(from_dense.HiddenRepresentation(x, layer),
                           from_dense.HiddenRepresentation(csr, layer)))
          << layer;
    }
  }
}

TEST(Mlp, AccuracyHelper) {
  Matrix logits{{2.0, 1.0}, {0.0, 1.0}, {3.0, 0.0}};
  const std::vector<int> labels = {0, 1, 1};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {}), 0.0);
}

}  // namespace
}  // namespace gcon
