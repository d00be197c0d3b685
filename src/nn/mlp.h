// Multilayer perceptron with hand-derived backpropagation.
//
// Serves three roles in the reproduction:
//   1. the GCON feature encoder (Algorithm 3): trained on features/labels
//      only (no edges), then its penultimate representation becomes the
//      encoded features X̄;
//   2. the MLP baseline of Figure 1 (edge-DP for free since it never
//      touches edges);
//   3. classifier heads inside GAP / ProGAP / LPGNet.
// Training is full-batch Adam on softmax cross-entropy with optional
// validation-based model selection (best weights restored).
//
// The layer-0 input comes as a dense Matrix or as a CsrMatrix (a graph's
// feature store). Either way, an input at most 10% nonzero (e.g. bag-of-words
// features) runs the first layer as CSR products that reproduce the dense
// GEMM's bits for finite weights, and a denser one runs the GEMM, so outputs
// never depend on which overload or path ran.
#ifndef GCON_NN_MLP_H_
#define GCON_NN_MLP_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "nn/activations.h"
#include "sparse/csr_matrix.h"

namespace gcon {

struct MlpOptions {
  /// Layer widths, input first, logits last, e.g. {d0, 64, d1, c}.
  std::vector<int> dims;
  Activation hidden_activation = Activation::kRelu;
  double learning_rate = 0.01;
  double weight_decay = 1e-5;
  int epochs = 200;
  std::uint64_t seed = 1;
  /// Evaluate on the validation set every `eval_every` epochs.
  int eval_every = 5;
};

class Mlp {
 public:
  explicit Mlp(const MlpOptions& options);

  /// Forward pass to logits (no softmax).
  Matrix Forward(const Matrix& x) const;
  Matrix Forward(const CsrMatrix& x) const;

  /// Representation after the activation of hidden layer `layer`
  /// (1-based; `layer` in [1, num_layers-1]). layer = num_layers-1 is the
  /// penultimate representation used by the GCON encoder.
  Matrix HiddenRepresentation(const Matrix& x, int layer) const;
  Matrix HiddenRepresentation(const CsrMatrix& x, int layer) const;

  /// Argmax class predictions for each row of x.
  std::vector<int> Predict(const Matrix& x) const;

  /// Trains on rows `train_idx` of x (full batch). If `val_idx` is
  /// non-empty, keeps the weights with the best validation accuracy.
  /// Returns the final training loss.
  double Train(const Matrix& x, const std::vector<int>& labels,
               const std::vector<int>& train_idx,
               const std::vector<int>& val_idx);
  double Train(const CsrMatrix& x, const std::vector<int>& labels,
               const std::vector<int>& train_idx,
               const std::vector<int>& val_idx);

  /// Loss and parameter gradients at the current weights, over rows `idx`.
  /// Exposed for gradient-check tests.
  double LossAndGrads(const Matrix& x, const std::vector<int>& labels,
                      const std::vector<int>& idx, std::vector<Matrix>* dw,
                      std::vector<Matrix>* db) const;

  int num_layers() const { return static_cast<int>(weights_.size()); }
  const Matrix& weight(int layer) const {
    return weights_[static_cast<std::size_t>(layer)];
  }
  Matrix* mutable_weight(int layer) {
    return &weights_[static_cast<std::size_t>(layer)];
  }
  const Matrix& bias(int layer) const {
    return biases_[static_cast<std::size_t>(layer)];
  }
  Matrix* mutable_bias(int layer) {
    return &biases_[static_cast<std::size_t>(layer)];
  }
  const MlpOptions& options() const { return options_; }

 private:
  // Train's loop over the gathered training and validation blocks, each a
  // Matrix or a CsrMatrix.
  template <typename Block>
  double TrainOnBlocks(const Block& x_train, const Block& x_val,
                       const std::vector<int>& labels,
                       const std::vector<int>& train_idx,
                       const std::vector<int>& val_idx);

  MlpOptions options_;
  std::vector<Matrix> weights_;  // weights_[l]: dims[l] x dims[l+1]
  std::vector<Matrix> biases_;   // biases_[l]: 1 x dims[l+1]
};

/// Glorot-uniform initialization: U(-a, a), a = sqrt(6 / (fan_in+fan_out)).
void GlorotInit(Matrix* w, std::uint64_t seed);

/// Multiclass accuracy of argmax(logits rows in `idx`) vs labels.
double Accuracy(const Matrix& logits, const std::vector<int>& labels,
                const std::vector<int>& idx);

}  // namespace gcon

#endif  // GCON_NN_MLP_H_
