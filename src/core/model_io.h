// GCON model (de)serialization — the release artifact of the paper's
// deployment story: the server trains under edge DP, then *publishes* the
// model; an untrusted consumer loads it and queries predictions.
//
// The artifact contains everything inference needs and nothing else:
//   * Θ_priv (the DP-protected parameters),
//   * the feature-encoder MLP (edge-free, hence publishable),
//   * the propagation configuration (α, steps, α_I) — hyperparameters,
//   * the privacy receipt (ε, δ and the Theorem 1 parameters used).
// Publishing all of this is safe: Θ_priv is (ε, δ)-DP and the rest never
// touched the edge set.
//
// Format: "gcon-model v1" header, key-value config lines, the Θ block, and
// the embedded MLP (nn/mlp_io.h format).
#ifndef GCON_CORE_MODEL_IO_H_
#define GCON_CORE_MODEL_IO_H_

#include <iosfwd>
#include <string>

#include "core/gcon.h"

namespace gcon {

/// Self-contained released model.
struct GconArtifact {
  Matrix theta;             ///< Θ_priv (d x c)
  Mlp encoder;              ///< trained feature encoder
  std::vector<int> steps;   ///< propagation steps {m_i}
  double alpha = 0.6;       ///< training restart probability
  double alpha_inference = -1.0;
  double epsilon = 0.0;     ///< privacy receipt
  double delta = 0.0;
  PrivacyParams params;     ///< Theorem 1 outputs actually used

  /// Eq. (16) logits on `graph` (private edges; only each node's own edges
  /// are read): EncodeForInference, then PrivateLogits over the cached
  /// transition of `graph`, as PrivateInference does on the training graph.
  Matrix Infer(const Graph& graph) const;
};

/// Extracts the release artifact from a trained pipeline.
GconArtifact MakeArtifact(const GconPrepared& prepared, const GconModel& model,
                          double epsilon, double delta);

/// Writes the artifact to `path`. Throws std::runtime_error naming the path
/// when the file cannot be opened or the write fails.
void SaveModel(const GconArtifact& artifact, const std::string& path);

/// Reads an artifact previously written by SaveModel. Throws
/// std::runtime_error naming `path` and the defect — missing file, wrong
/// magic/version, out-of-order key, truncated theta/MLP block, or a header
/// whose declared sizes exceed the sanity bounds below — so a bad artifact
/// is a reportable condition instead of an abort (or an OOM).
GconArtifact LoadModel(const std::string& path);

/// Stream variant: parses one artifact from `in`; `name` labels error
/// messages the way the path does for the file overload. This is the
/// surface the artifact fuzz harness drives.
GconArtifact LoadModel(std::istream& in, const std::string& name);

/// Sanity bounds on a declared artifact header. A well-formed artifact is
/// nowhere near them; a corrupt or hostile one must not be able to make
/// LoadModel allocate unbounded memory before the truncation check fires.
inline constexpr std::size_t kMaxArtifactSteps = 256;
inline constexpr std::size_t kMaxArtifactMatrixDim = 1u << 24;
inline constexpr std::size_t kMaxArtifactMatrixElems = 1u << 26;

}  // namespace gcon

#endif  // GCON_CORE_MODEL_IO_H_
