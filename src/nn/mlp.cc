#include "nn/mlp.h"

#include <cmath>
#include <optional>

#include "common/check.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

// Inputs at most this dense run the first layer as CSR products, whose bits
// equal the dense GEMM's (CsrMatrix::BlockedMultiply), so the choice never
// shows in the output. Measured crossover at the cora_ml training shape
// (BM_EncoderLayer0: 140 x 2,879 -> 32, 4-vCPU 2 GHz AVX2 Xeon, GEMM on the
// 4-thread pool): ~0.3 for the weight gradient and ~0.25 for a forward call
// including its CSR build. At 0.1 the sparse gradient is still ~2x ahead,
// and every bag-of-words spec (0.9-6%) is well inside.
constexpr double kSparseInputMaxDensity = 0.1;

// A layer-0 input in the form its products run in: CSR when it is at most
// kSparseInputMaxDensity dense (plus the transpose for the weight gradient),
// a dense matrix otherwise. Dense and CSR callers get the same kernel for
// the same values, so the overload a caller picks never shows in the bits.
// Built once per input so a training loop pays for a conversion once, not
// per epoch. Holds references to the caller's matrix; not copyable.
class LayerInput {
 public:
  LayerInput(const Matrix& x, bool with_transpose)
      : owned_csr_(CsrMatrix::FromDenseIfSparse(x, kSparseInputMaxDensity)) {
    if (owned_csr_) {
      csr_ = &*owned_csr_;
    } else {
      dense_ = &x;
    }
    if (with_transpose && csr_ != nullptr) csr_t_ = csr_->Transposed();
  }

  LayerInput(const CsrMatrix& x, bool with_transpose) {
    // The rule FromDenseIfSparse applies to a dense input's nonzeros.
    if (static_cast<double>(x.nnz()) <=
        kSparseInputMaxDensity * static_cast<double>(x.rows() * x.cols())) {
      csr_ = &x;
      if (with_transpose) csr_t_ = x.Transposed();
    } else {
      owned_dense_ = x.ToDense();
      dense_ = &owned_dense_;
    }
  }

  LayerInput(const LayerInput&) = delete;
  LayerInput& operator=(const LayerInput&) = delete;

  /// X * W.
  Matrix Times(const Matrix& w) const {
    return csr_ != nullptr ? csr_->BlockedMultiply(w) : MatMul(*dense_, w);
  }

  /// X^T * dZ.
  Matrix TransposeTimes(const Matrix& dz) const {
    return csr_t_ ? csr_t_->BlockedMultiply(dz) : MatMulTransA(*dense_, dz);
  }

 private:
  const Matrix* dense_ = nullptr;
  const CsrMatrix* csr_ = nullptr;
  std::optional<CsrMatrix> owned_csr_;
  Matrix owned_dense_;
  std::optional<CsrMatrix> csr_t_;
};

// Forward pass keeping every layer's post-activation output: outputs[l] is
// layer l's output, and the input stays the caller's matrix.
void ForwardKeep(const Mlp& mlp, const LayerInput& input,
                 std::vector<Matrix>* outputs) {
  const int layers = mlp.num_layers();
  outputs->clear();
  for (int l = 0; l < layers; ++l) {
    Matrix z = l == 0 ? input.Times(mlp.weight(0))
                      : MatMul(outputs->back(), mlp.weight(l));
    const double* b = mlp.bias(l).RowPtr(0);
    for (std::size_t i = 0; i < z.rows(); ++i) {
      double* row = z.RowPtr(i);
      for (std::size_t j = 0; j < z.cols(); ++j) row[j] += b[j];
    }
    if (l + 1 < layers) {
      ApplyActivationInPlace(mlp.options().hidden_activation, &z);
    }
    outputs->push_back(std::move(z));
  }
}

double LossAndGradsImpl(const Mlp& mlp, const LayerInput& input,
                        const std::vector<int>& labels,
                        const std::vector<int>& idx, std::vector<Matrix>* dw,
                        std::vector<Matrix>* db) {
  std::vector<Matrix> outputs;
  ForwardKeep(mlp, input, &outputs);
  Matrix dz;
  const double loss = SoftmaxCrossEntropy(outputs.back(), labels, idx, &dz);
  const std::size_t layer_count = outputs.size();
  dw->assign(layer_count, Matrix());
  db->assign(layer_count, Matrix());
  for (std::size_t l = layer_count; l-- > 0;) {
    (*dw)[l] = l == 0 ? input.TransposeTimes(dz)
                      : MatMulTransA(outputs[l - 1], dz);
    Matrix bias_grad(1, dz.cols());
    for (std::size_t j = 0; j < dz.cols(); ++j) {
      bias_grad(0, j) = ColSum(dz, j);
    }
    (*db)[l] = std::move(bias_grad);
    if (l == 0) break;
    Matrix dh = MatMulTransB(dz, mlp.weight(static_cast<int>(l)));
    Matrix deriv;
    ActivationDerivFromOutput(mlp.options().hidden_activation, outputs[l - 1],
                              &deriv);
    dz = Hadamard(dh, deriv);
  }
  return loss;
}

Matrix ForwardImpl(const Mlp& mlp, const LayerInput& input) {
  std::vector<Matrix> outputs;
  ForwardKeep(mlp, input, &outputs);
  return std::move(outputs.back());
}

Matrix HiddenImpl(const Mlp& mlp, const LayerInput& input, int layer) {
  GCON_CHECK_GE(layer, 1);
  GCON_CHECK_LT(layer, mlp.num_layers());
  std::vector<Matrix> outputs;
  ForwardKeep(mlp, input, &outputs);
  return std::move(outputs[static_cast<std::size_t>(layer - 1)]);
}

}  // namespace

void GlorotInit(Matrix* w, std::uint64_t seed) {
  Rng rng(seed);
  const double fan_in = static_cast<double>(w->rows());
  const double fan_out = static_cast<double>(w->cols());
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (std::size_t k = 0; k < w->size(); ++k) {
    w->data()[k] = rng.Uniform(-limit, limit);
  }
}

double Accuracy(const Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& idx) {
  if (idx.empty()) return 0.0;
  int correct = 0;
  for (int node : idx) {
    const std::size_t i = static_cast<std::size_t>(node);
    if (static_cast<int>(RowArgMax(logits, i)) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(idx.size());
}

Mlp::Mlp(const MlpOptions& options) : options_(options) {
  GCON_CHECK_GE(options_.dims.size(), 2u) << "need at least input+output dims";
  const std::size_t layer_count = options_.dims.size() - 1;
  weights_.reserve(layer_count);
  biases_.reserve(layer_count);
  for (std::size_t l = 0; l < layer_count; ++l) {
    Matrix w(static_cast<std::size_t>(options_.dims[l]),
             static_cast<std::size_t>(options_.dims[l + 1]));
    GlorotInit(&w, options_.seed + 7919 * (l + 1));
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, static_cast<std::size_t>(options_.dims[l + 1]));
  }
}

Matrix Mlp::Forward(const Matrix& x) const {
  return ForwardImpl(*this, LayerInput(x, /*with_transpose=*/false));
}

Matrix Mlp::Forward(const CsrMatrix& x) const {
  return ForwardImpl(*this, LayerInput(x, /*with_transpose=*/false));
}

Matrix Mlp::HiddenRepresentation(const Matrix& x, int layer) const {
  return HiddenImpl(*this, LayerInput(x, /*with_transpose=*/false), layer);
}

Matrix Mlp::HiddenRepresentation(const CsrMatrix& x, int layer) const {
  return HiddenImpl(*this, LayerInput(x, /*with_transpose=*/false), layer);
}

std::vector<int> Mlp::Predict(const Matrix& x) const {
  const Matrix logits = Forward(x);
  std::vector<int> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = static_cast<int>(RowArgMax(logits, i));
  }
  return out;
}

double Mlp::LossAndGrads(const Matrix& x, const std::vector<int>& labels,
                         const std::vector<int>& idx, std::vector<Matrix>* dw,
                         std::vector<Matrix>* db) const {
  return LossAndGradsImpl(*this, LayerInput(x, /*with_transpose=*/true),
                          labels, idx, dw, db);
}

double Mlp::Train(const Matrix& x, const std::vector<int>& labels,
                  const std::vector<int>& train_idx,
                  const std::vector<int>& val_idx) {
  GCON_CHECK(!train_idx.empty());
  // Work on the gathered training block so each epoch touches n1 rows, not n.
  return TrainOnBlocks(GatherRows(x, train_idx), GatherRows(x, val_idx), labels,
                       train_idx, val_idx);
}

double Mlp::Train(const CsrMatrix& x, const std::vector<int>& labels,
                  const std::vector<int>& train_idx,
                  const std::vector<int>& val_idx) {
  GCON_CHECK(!train_idx.empty());
  return TrainOnBlocks(x.GatherRows(train_idx), x.GatherRows(val_idx), labels,
                       train_idx, val_idx);
}

template <typename Block>
double Mlp::TrainOnBlocks(const Block& x_train, const Block& x_val,
                          const std::vector<int>& labels,
                          const std::vector<int>& train_idx,
                          const std::vector<int>& val_idx) {
  std::vector<int> labels_train(train_idx.size());
  std::vector<int> local_idx(train_idx.size());
  for (std::size_t i = 0; i < train_idx.size(); ++i) {
    labels_train[i] = labels[static_cast<std::size_t>(train_idx[i])];
    local_idx[i] = static_cast<int>(i);
  }
  std::vector<int> labels_val(val_idx.size());
  std::vector<int> local_val_idx(val_idx.size());
  for (std::size_t i = 0; i < val_idx.size(); ++i) {
    labels_val[i] = labels[static_cast<std::size_t>(val_idx[i])];
    local_val_idx[i] = static_cast<int>(i);
  }

  const LayerInput train_input(x_train, /*with_transpose=*/true);
  const LayerInput val_input(x_val, /*with_transpose=*/false);

  Adam::Options adam_options;
  adam_options.learning_rate = options_.learning_rate;
  adam_options.weight_decay = options_.weight_decay;
  Adam adam(adam_options);
  std::vector<std::size_t> w_slot, b_slot;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    w_slot.push_back(adam.Register(weights_[l]));
    b_slot.push_back(adam.Register(biases_[l]));
  }

  double best_val = -1.0;
  std::vector<Matrix> best_w = weights_;
  std::vector<Matrix> best_b = biases_;
  double last_loss = 0.0;
  std::vector<Matrix> dw, db;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    last_loss =
        LossAndGradsImpl(*this, train_input, labels_train, local_idx, &dw, &db);
    adam.BeginStep();
    for (std::size_t l = 0; l < weights_.size(); ++l) {
      adam.Step(w_slot[l], dw[l], &weights_[l]);
      adam.Step(b_slot[l], db[l], &biases_[l]);
    }
    if (!val_idx.empty() &&
        (epoch % options_.eval_every == 0 || epoch + 1 == options_.epochs)) {
      std::vector<Matrix> val_outputs;
      ForwardKeep(*this, val_input, &val_outputs);
      const Matrix& val_logits = val_outputs.back();
      const double acc = Accuracy(val_logits, labels_val, local_val_idx);
      if (acc > best_val) {
        best_val = acc;
        best_w = weights_;
        best_b = biases_;
      }
    }
  }
  if (!val_idx.empty() && best_val >= 0.0) {
    weights_ = std::move(best_w);
    biases_ = std::move(best_b);
  }
  return last_loss;
}

}  // namespace gcon
