#include "core/model_io.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/string_util.h"
#include "nn/mlp_io.h"
#include "propagation/cache.h"

namespace gcon {
namespace {

// All artifact I/O failures are environmental (missing file, truncation,
// version skew), not programming errors: report them with the path and the
// specific defect so `gcon_cli predict/serve` and GraphModel::Load callers
// can print something actionable instead of aborting.
[[noreturn]] void BadArtifact(const std::string& path,
                              const std::string& what) {
  throw std::runtime_error("model artifact '" + path + "': " + what);
}

}  // namespace

Matrix GconArtifact::Infer(const Graph& graph) const {
  const PropagationCache::CachedCsr transition =
      PropagationCache::Global().Transition(graph);
  return PrivateLogits(*transition.csr,
                       EncodeForInference(encoder, graph.feature_csr()),
                       steps, InferenceAlpha(alpha, alpha_inference), theta);
}

void SaveModel(const GconArtifact& artifact, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    BadArtifact(path, "cannot open for writing");
  }
  out << std::setprecision(17);
  out << "gcon-model v1\n";
  out << "alpha " << artifact.alpha << "\n";
  out << "alpha_inference " << artifact.alpha_inference << "\n";
  out << "epsilon " << artifact.epsilon << "\n";
  out << "delta " << artifact.delta << "\n";
  out << "beta " << artifact.params.beta << "\n";
  out << "lambda_bar " << artifact.params.lambda_bar << "\n";
  out << "lambda_prime " << artifact.params.lambda_prime << "\n";
  out << "steps " << artifact.steps.size();
  for (int m : artifact.steps) {
    out << " " << m;
  }
  out << "\n";
  out << "theta " << artifact.theta.rows() << " " << artifact.theta.cols()
      << "\n";
  for (std::size_t i = 0; i < artifact.theta.rows(); ++i) {
    const double* row = artifact.theta.RowPtr(i);
    for (std::size_t j = 0; j < artifact.theta.cols(); ++j) {
      out << row[j] << (j + 1 == artifact.theta.cols() ? "" : " ");
    }
    out << "\n";
  }
  SaveMlp(artifact.encoder, &out);
  if (!out.good()) {
    BadArtifact(path, "write failure (disk full or file removed mid-write?)");
  }
}

GconArtifact MakeArtifact(const GconPrepared& prepared, const GconModel& model,
                          double epsilon, double delta) {
  GconArtifact artifact{model.theta,
                        prepared.encoder_mlp,
                        prepared.config.steps,
                        prepared.config.alpha,
                        prepared.config.alpha_inference,
                        epsilon,
                        delta,
                        model.params};
  return artifact;
}

GconArtifact LoadModel(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    BadArtifact(path, "cannot open (missing file or no read permission)");
  }
  return LoadModel(in, path);
}

GconArtifact LoadModel(std::istream& in, const std::string& path) {
  std::string line;
  if (!std::getline(in, line)) {
    BadArtifact(path, "empty file (want a 'gcon-model v1' header)");
  }
  if (line != "gcon-model v1") {
    BadArtifact(path, "bad magic '" + line +
                          "' (want 'gcon-model v1' — not a model artifact, "
                          "or written by an incompatible version)");
  }

  auto read_kv = [&in, &path](const char* key) {
    std::string word;
    double value = 0.0;
    if (!(in >> word >> value)) {
      BadArtifact(path, std::string("truncated before key '") + key + "'");
    }
    if (word != key) {
      BadArtifact(path, "expected key '" + std::string(key) + "', got '" +
                            word + "' (out-of-order or corrupted header)");
    }
    return value;
  };
  const double alpha = read_kv("alpha");
  const double alpha_inference = read_kv("alpha_inference");
  const double epsilon = read_kv("epsilon");
  const double delta = read_kv("delta");
  PrivacyParams params;
  params.beta = read_kv("beta");
  params.lambda_bar = read_kv("lambda_bar");
  params.lambda_prime = read_kv("lambda_prime");

  std::string word;
  std::size_t step_count = 0;
  if (!(in >> word >> step_count) || word != "steps") {
    BadArtifact(path, "missing 'steps' section");
  }
  if (step_count > kMaxArtifactSteps) {
    // Bound declared sizes BEFORE allocating: a corrupt header must not be
    // able to request unbounded memory (found by the artifact fuzzer).
    BadArtifact(path, "implausible steps count " + std::to_string(step_count) +
                          " (max " + std::to_string(kMaxArtifactSteps) + ")");
  }
  std::vector<int> steps(step_count);
  for (auto& m : steps) {
    if (!(in >> m)) {
      BadArtifact(path, "truncated steps list (want " +
                            std::to_string(step_count) + " entries)");
    }
  }

  std::size_t rows = 0, cols = 0;
  if (!(in >> word >> rows >> cols) || word != "theta") {
    BadArtifact(path, "missing 'theta' section header");
  }
  if (rows > kMaxArtifactMatrixDim || cols > kMaxArtifactMatrixDim ||
      (rows != 0 && cols > kMaxArtifactMatrixElems / rows)) {
    BadArtifact(path, "implausible theta shape " + std::to_string(rows) + "x" +
                          std::to_string(cols) +
                          " (declared size would exceed the artifact bound)");
  }
  Matrix theta(rows, cols);
  std::string token;
  for (std::size_t k = 0; k < theta.size(); ++k) {
    if (!(in >> token)) {
      BadArtifact(path, "truncated theta block (want " +
                            std::to_string(theta.size()) + " values, got " +
                            std::to_string(k) + ")");
    }
    if (!ParseFiniteDouble(token.data(), token.data() + token.size(),
                           &theta.data()[k])) {
      BadArtifact(path, "non-finite or malformed value '" +
                            token.substr(0, 32) + "' at theta index " +
                            std::to_string(k));
    }
  }

  try {
    Mlp encoder = LoadMlp(&in);
    return GconArtifact{std::move(theta), std::move(encoder), std::move(steps),
                        alpha,            alpha_inference,    epsilon,
                        delta,            params};
  } catch (const std::runtime_error& e) {
    BadArtifact(path, e.what());
  }
}

}  // namespace gcon
