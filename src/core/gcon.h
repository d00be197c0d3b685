// GCON end-to-end training (Algorithm 1) and inference (Algorithm 4).
//
// Pipeline:
//   1. feature encoder (Algorithm 3; edges never touched)     [ε-independent]
//   2. row-L2-normalize encoded features                      [ε-independent]
//   3. Ã = D^{-1}(A+I); Z = (1/s)(Z_{m_1} ⊕ ... ⊕ Z_{m_s})    [ε-independent]
//   4. Ψ(Z) (Lemma 2) → Theorem 1 parameters (Λ̄, Λ′, β)
//   5. sample B (Algorithm 2); minimize L_priv (Eq. 13/15)
//
// The ε-independent prefix is factored into GconPrepared so privacy-budget
// sweeps (Figures 1 and 4) and repeated noise draws reuse it.
//
// Inference (Algorithm 4):
//   * private:  Ŷ = (R̂_{m_1}X̄ ⊕ ... ⊕ R̂_{m_s}X̄) Θ_priv with the one-hop
//     R̂ = (1-α_I)Ã + α_I·I (Eq. 16) — only the query node's own edges are
//     read, so no extra privacy cost;
//   * public:   Ŷ = Z Θ_priv (test-graph edges considered public).
#ifndef GCON_CORE_GCON_H_
#define GCON_CORE_GCON_H_

#include <cstdint>
#include <vector>

#include "core/convex_loss.h"
#include "core/encoder.h"
#include "core/objective.h"
#include "core/theorem1.h"
#include "graph/graph.h"
#include "graph/splits.h"
#include "sparse/csr_matrix.h"

namespace gcon {

struct GconConfig {
  // Privacy budget.
  double epsilon = 1.0;
  double delta = 1e-5;
  double omega = 0.9;  // budget divider (Appendix Q fixes 0.9)

  // Propagation (Eq. 9-11).
  double alpha = 0.6;
  std::vector<int> steps = {2};  // entries >= 0 or kInfiniteSteps
  /// Restart probability at inference (Eq. 16); < 0 means "use alpha".
  double alpha_inference = -1.0;

  // Loss (§IV-C4) and regularization.
  ConvexLossKind loss_kind = ConvexLossKind::kMultiLabelSoftMargin;
  double pseudo_huber_delta = 0.5;
  double lambda = 0.2;

  // Encoder (Algorithm 3).
  EncoderOptions encoder;
  /// Expand the convex-stage training set to all nodes with encoder
  /// pseudo-labels (the paper's n1 = n option).
  bool expand_train_set = false;

  // Convex minimization (Eq. 15).
  MinimizeOptions minimize;

  std::uint64_t seed = 1;
  /// Ablation switch: skip the noise (B = 0, Λ′ = 0). NOT differentially
  /// private — exists to isolate the cost of the perturbation.
  bool disable_noise = false;
};

/// Everything on the ε-independent path of Algorithm 1.
struct GconPrepared {
  GconConfig config;
  int num_classes = 0;
  Matrix encoded;             ///< X̄ after row normalization (n x d1)
  CsrMatrix transition;       ///< Ã
  Matrix z;                   ///< Eq. (11), all nodes (n x d)
  Matrix z_train;             ///< training rows of z (n1 x d)
  Matrix y_train;             ///< one-hot targets (n1 x c)
  std::vector<int> train_nodes;
  double psi_z = 0.0;         ///< Ψ(Z), Lemma 2
  double encoder_val_accuracy = -1.0;
  Mlp encoder_mlp;            ///< for encoding other graphs
};

struct GconModel {
  Matrix theta;           ///< Θ_priv (d x c)
  PrivacyParams params;   ///< Theorem 1 outputs actually used
  MinimizeResult opt;     ///< minimizer diagnostics
};

/// Runs steps 1-3 of the pipeline (everything before the privacy budget
/// enters).
GconPrepared PrepareGcon(const Graph& graph, const Split& split,
                         const GconConfig& config);

/// Like PrepareGcon but reuses an already-trained encoder (the encoder does
/// not depend on alpha/steps/epsilon, so sweeps over those — Figures 2-4 —
/// train it once and call this).
GconPrepared PrepareGconFromEncoded(const Graph& graph, const Split& split,
                                    const GconConfig& config,
                                    const EncodedFeatures& encoded);

/// Runs steps 4-5: Theorem 1 parameters at (epsilon, delta) from `prepared`,
/// noise draw with `noise_seed`, convex minimization.
GconModel TrainPrepared(const GconPrepared& prepared, double epsilon,
                        double delta, std::uint64_t noise_seed);

/// Convenience: Prepare + TrainPrepared with the config's budget and seed.
GconModel TrainGcon(const Graph& graph, const Split& split,
                    const GconConfig& config);

/// The edge-free encode step every inference path shares: the encoder's
/// penultimate layer on `features`, then row L2 normalization (Algorithm 1,
/// line 2). A row's bits do not depend on the other rows.
Matrix EncodeForInference(const Mlp& encoder, const CsrMatrix& features);

/// α_I of Eq. (16): `alpha_inference` when set (>= 0), else `alpha`.
double InferenceAlpha(double alpha, double alpha_inference);

/// The one Eq. (16) implementation: the concatenated blocks
/// (R̂_{m_1}X̄ ⊕ ... ⊕ R̂_{m_s}X̄), where R̂_0 = I and every m > 0 shares the
/// one-hop R̂ = (1-α_I)Ã + α_I·I, computed once with SpmmAxpby, times Θ.
/// There is no 1/s factor: argmax is scale-invariant and the paper's
/// Eq. (16) omits it.
Matrix PrivateLogits(const CsrMatrix& transition, const Matrix& encoded,
                     const std::vector<int>& steps, double alpha_inf,
                     const Matrix& theta);

/// Eq. (16) logits for every node of the training graph (private path).
/// On another graph, use MakeArtifact(...).Infer(graph) (core/model_io.h).
Matrix PrivateInference(const GconPrepared& prepared, const GconModel& model);

/// Ŷ = ZΘ logits for every node (public test-graph path).
Matrix PublicInference(const GconPrepared& prepared, const GconModel& model);

/// Public-path logits on a *different* graph whose edges are public:
/// full Eq. (11) propagation on that graph, then Ŷ = ZΘ (Algorithm 4's
/// "else" branch in scenario (ii)).
Matrix PublicInferenceOnGraph(const GconPrepared& prepared,
                              const GconModel& model, const Graph& graph);

}  // namespace gcon

#endif  // GCON_CORE_GCON_H_
