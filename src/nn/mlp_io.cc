#include "nn/mlp_io.h"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/string_util.h"

namespace gcon {
namespace {

// Malformed persisted input is an environmental error, not a programming
// error: report it as an exception the caller can attach a file path to,
// instead of aborting the process.
[[noreturn]] void Malformed(const std::string& what) {
  throw std::runtime_error("mlp block: " + what);
}

// Sanity bounds on a declared architecture: a corrupt or hostile header
// must not be able to make LoadMlp allocate unbounded memory before the
// truncation check fires (found by the artifact fuzzer). A real encoder is
// nowhere near these.
constexpr std::size_t kMaxMlpLayers = 64;
constexpr long long kMaxMlpDim = 1 << 24;
constexpr long long kMaxMlpMatrixElems = 1 << 26;

const char* ActivationName(Activation act) {
  switch (act) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
    case Activation::kSigmoid:
      return "sigmoid";
  }
  return "identity";
}

void WriteMatrix(const char* tag, int layer, const Matrix& m,
                 std::ostream* out) {
  *out << tag << " " << layer << " " << m.rows() << " " << m.cols() << "\n";
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      *out << row[j] << (j + 1 == m.cols() ? "" : " ");
    }
    *out << "\n";
  }
}

void ReadMatrixInto(const char* tag, int expected_layer, std::istream* in,
                    Matrix* m) {
  std::string word;
  int layer = 0;
  std::size_t rows = 0, cols = 0;
  if (!(*in >> word >> layer >> rows >> cols)) {
    Malformed(std::string("truncated before the ") + tag + " header of layer " +
              std::to_string(expected_layer));
  }
  if (word != tag) {
    Malformed("expected '" + std::string(tag) + "' for layer " +
              std::to_string(expected_layer) + ", got '" + word + "'");
  }
  if (layer != expected_layer) {
    Malformed(std::string(tag) + " layer out of order: want " +
              std::to_string(expected_layer) + ", got " +
              std::to_string(layer));
  }
  if (rows != m->rows() || cols != m->cols()) {
    std::ostringstream msg;
    msg << tag << " " << layer << " shape " << rows << "x" << cols
        << " does not match the declared architecture (" << m->rows() << "x"
        << m->cols() << ")";
    Malformed(msg.str());
  }
  std::string token;
  for (std::size_t k = 0; k < m->size(); ++k) {
    if (!(*in >> token)) {
      Malformed(std::string("truncated ") + tag + " matrix of layer " +
                std::to_string(layer));
    }
    // Finite weights are what lets the sparse first layer skip zero
    // features with the dense GEMM's bits (linalg/gemm_kernels.h).
    if (!ParseFiniteDouble(token.data(), token.data() + token.size(),
                           &m->data()[k])) {
      Malformed("non-finite or malformed value '" + token.substr(0, 32) +
                "' at index " + std::to_string(k) + " of " + tag +
                " matrix of layer " + std::to_string(layer));
    }
  }
}

}  // namespace

void SaveMlp(const Mlp& mlp, std::ostream* out) {
  const MlpOptions& options = mlp.options();
  *out << std::setprecision(17);
  *out << "mlp " << options.dims.size();
  for (int dim : options.dims) {
    *out << " " << dim;
  }
  *out << " " << ActivationName(options.hidden_activation) << "\n";
  for (int l = 0; l < mlp.num_layers(); ++l) {
    WriteMatrix("W", l, mlp.weight(l), out);
    WriteMatrix("b", l, mlp.bias(l), out);
  }
}

Mlp LoadMlp(std::istream* in) {
  std::string word;
  if (!(*in >> word)) Malformed("truncated before the mlp header");
  if (word != "mlp") Malformed("bad magic '" + word + "' (want 'mlp')");
  std::size_t dim_count = 0;
  if (!(*in >> dim_count) || dim_count < 2) {
    Malformed("architecture needs at least input and output dims");
  }
  if (dim_count > kMaxMlpLayers) {
    Malformed("implausible layer count " + std::to_string(dim_count) +
              " (max " + std::to_string(kMaxMlpLayers) + ")");
  }
  MlpOptions options;
  options.dims.resize(dim_count);
  for (auto& dim : options.dims) {
    if (!(*in >> dim) || dim <= 0) {
      Malformed("non-positive or missing layer dimension");
    }
    if (dim > kMaxMlpDim) {
      Malformed("implausible layer dimension " + std::to_string(dim) +
                " (max " + std::to_string(kMaxMlpDim) + ")");
    }
  }
  for (std::size_t i = 0; i + 1 < options.dims.size(); ++i) {
    const long long elems = static_cast<long long>(options.dims[i]) *
                            static_cast<long long>(options.dims[i + 1]);
    if (elems > kMaxMlpMatrixElems) {
      Malformed("implausible weight shape " + std::to_string(options.dims[i]) +
                "x" + std::to_string(options.dims[i + 1]) +
                " (declared size would exceed the mlp block bound)");
    }
  }
  std::string activation;
  if (!(*in >> activation)) Malformed("truncated before the activation name");
  if (activation != "identity" && activation != "relu" &&
      activation != "tanh" && activation != "sigmoid") {
    // ActivationByName treats an unknown name as a programming error and
    // aborts; from persisted input it is corruption, so throw instead.
    Malformed("unknown activation '" + activation + "'");
  }
  options.hidden_activation = ActivationByName(activation);
  Mlp mlp(options);
  for (int l = 0; l < mlp.num_layers(); ++l) {
    ReadMatrixInto("W", l, in, mlp.mutable_weight(l));
    ReadMatrixInto("b", l, in, mlp.mutable_bias(l));
  }
  return mlp;
}

}  // namespace gcon
