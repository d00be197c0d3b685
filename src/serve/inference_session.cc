#include "serve/inference_session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "linalg/ops.h"
#include "propagation/cache.h"
#include "propagation/transition.h"

namespace gcon {

namespace {

// A parseable artifact can still be internally inconsistent, or mismatch
// the serving graph. Both are environmental (a bad published file, the
// wrong --graph), so they throw like LoadModel's own defects do — never
// GCON_CHECK, which would abort past the CLI's error reporting.
[[noreturn]] void BadSession(const std::string& what) {
  throw std::runtime_error("cannot serve this artifact: " + what);
}

/// Sorted, deduplicated, in-range-neighbor list for a rebuilt transition
/// row. `self` is excluded (no self-loops, matching Graph's invariant).
std::vector<int> SanitizeEdges(const std::vector<int>& edges, int self,
                               int num_nodes) {
  std::vector<int> sanitized = edges;
  std::sort(sanitized.begin(), sanitized.end());
  sanitized.erase(std::unique(sanitized.begin(), sanitized.end()),
                  sanitized.end());
  sanitized.erase(
      std::remove_if(sanitized.begin(), sanitized.end(),
                     [&](int u) {
                       return u < 0 || u >= num_nodes || u == self;
                     }),
      sanitized.end());
  return sanitized;
}

std::uint64_t Fnv1a(const void* data, std::size_t len, std::uint64_t hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Content hash of a release: the trained weights plus the privacy
/// receipt. Two independently trained artifacts collide only if their
/// theta bytes (and receipt) are identical — which, for the ledger's
/// "same release reloaded?" question, IS the same release.
std::uint64_t FingerprintArtifact(const GconArtifact& artifact) {
  std::uint64_t hash = 14695981039346656037ull;
  hash = Fnv1a(&artifact.epsilon, sizeof(artifact.epsilon), hash);
  hash = Fnv1a(&artifact.delta, sizeof(artifact.delta), hash);
  hash = Fnv1a(&artifact.alpha, sizeof(artifact.alpha), hash);
  hash = Fnv1a(&artifact.alpha_inference, sizeof(artifact.alpha_inference),
               hash);
  if (!artifact.steps.empty()) {
    hash = Fnv1a(artifact.steps.data(),
                 artifact.steps.size() * sizeof(int), hash);
  }
  const std::uint64_t rows = artifact.theta.rows();
  const std::uint64_t cols = artifact.theta.cols();
  hash = Fnv1a(&rows, sizeof(rows), hash);
  hash = Fnv1a(&cols, sizeof(cols), hash);
  if (!artifact.theta.empty()) {
    hash = Fnv1a(artifact.theta.data(),
                 artifact.theta.size() * sizeof(double), hash);
  }
  return hash;
}

/// The batch's feature-carrying queries, in batch order, as one canonical
/// CSR block: columns ascending, keeping exactly the entries that compare
/// unequal to 0.0 — CsrMatrix::FromDense's rule, so each row equals the
/// query node's row of the augmented graph's feature_csr().
CsrMatrix InductiveRows(const std::vector<const ServeRequest*>& batch,
                        std::size_t dim) {
  std::vector<std::int64_t> row_ptr = {0};
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  for (const ServeRequest* request : batch) {
    if (!request->has_features) continue;
    const std::vector<double>& x = request->features;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j] != 0.0) {
        col_idx.push_back(static_cast<std::int32_t>(j));
        values.push_back(x[j]);
      }
    }
    row_ptr.push_back(static_cast<std::int64_t>(values.size()));
  }
  const std::size_t rows = row_ptr.size() - 1;
  return CsrMatrix(rows, dim, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

}  // namespace

void InferenceSession::InitArtifact(GconArtifact artifact,
                                    std::shared_ptr<const Graph> graph) {
  per_query_ = true;
  graph_ = std::move(graph);
  artifact_ = std::move(artifact);
  if (artifact_->steps.empty()) {
    BadSession("it declares no propagation steps");
  }
  if (graph_ == nullptr || graph_->num_nodes() <= 0) {
    BadSession("the serving graph is empty");
  }
  const int encoder_in = artifact_->encoder.options().dims.front();
  if (graph_->feature_dim() != encoder_in) {
    BadSession("the serving graph has " +
               std::to_string(graph_->feature_dim()) +
               "-dim features but the encoder expects " +
               std::to_string(encoder_in));
  }
  // The whole-graph work, done once: exactly the calls Infer makes, so each
  // encoded row is bitwise identical to the offline pipeline's. The
  // transition comes through the same cache Infer uses — a serving process
  // that also ran offline inference on this graph reuses the build.
  encoded_ = EncodeForInference(artifact_->encoder, graph_->feature_csr());
  transition_ = PropagationCache::Global().Transition(*graph_).csr;
  alpha_inf_ = InferenceAlpha(artifact_->alpha, artifact_->alpha_inference);
  if (artifact_->theta.rows() != artifact_->steps.size() * encoded_.cols()) {
    BadSession("theta has " + std::to_string(artifact_->theta.rows()) +
               " rows, want steps x encoder width = " +
               std::to_string(artifact_->steps.size() * encoded_.cols()));
  }
  num_classes_ = artifact_->theta.cols();
  artifact_fp_ = FingerprintArtifact(*artifact_);
}

InferenceSession::InferenceSession(GconArtifact artifact, Graph graph)
    : InferenceSession(std::move(artifact),
                       std::make_shared<const Graph>(std::move(graph))) {}

InferenceSession::InferenceSession(GconArtifact artifact,
                                   std::shared_ptr<const Graph> graph) {
  InitArtifact(std::move(artifact), std::move(graph));
}

InferenceSession::InferenceSession(const GraphModel& model, Graph graph)
    : InferenceSession(model,
                       std::make_shared<const Graph>(std::move(graph))) {}

InferenceSession::InferenceSession(const GraphModel& model,
                                   std::shared_ptr<const Graph> graph) {
  // A model that publishes its release artifact gets the full per-query
  // path — private edge lists and feature-carrying queries included.
  if (const GconArtifact* artifact = model.ReleaseArtifact()) {
    InitArtifact(*artifact, std::move(graph));
    return;
  }
  per_query_ = false;
  graph_ = std::move(graph);
  if (graph_ == nullptr || graph_->num_nodes() <= 0) {
    throw std::runtime_error("cannot serve an empty graph");
  }
  dense_logits_ = model.Predict(*graph_);
  GCON_CHECK_EQ(dense_logits_.rows(),
                static_cast<std::size_t>(graph_->num_nodes()));
  num_classes_ = dense_logits_.cols();
}

InferenceSession InferenceSession::FromFile(const std::string& model_path,
                                            Graph graph) {
  return FromFile(model_path,
                  std::make_shared<const Graph>(std::move(graph)));
}

InferenceSession InferenceSession::FromFile(
    const std::string& model_path, std::shared_ptr<const Graph> graph) {
  GconArtifact artifact = LoadModel(model_path);  // throws with the path
  try {
    return InferenceSession(std::move(artifact), std::move(graph));
  } catch (const std::runtime_error& e) {
    // Consistency failures know the defect; attach where it came from.
    throw std::runtime_error("model artifact '" + model_path +
                             "': " + e.what());
  }
}

void InferenceSession::ValidateRequest(const ServeRequest& request) const {
  if (request.has_features) {
    if (!per_query_) {
      throw std::invalid_argument(
          "feature-carrying queries need a gcon artifact session; this "
          "session serves precomputed logits");
    }
    if (request.node != -1) {
      throw std::invalid_argument(
          "a query carries either 'node' or 'features', not both");
    }
    if (static_cast<int>(request.features.size()) != graph_->feature_dim()) {
      throw std::invalid_argument(
          "query features have " + std::to_string(request.features.size()) +
          " values but the encoder expects " +
          std::to_string(graph_->feature_dim()));
    }
    return;
  }
  if (request.node < 0 || request.node >= graph_->num_nodes()) {
    throw std::invalid_argument(
        "node " + std::to_string(request.node) + " out of range [0, " +
        std::to_string(graph_->num_nodes()) + ")");
  }
  if (request.has_edges && !per_query_) {
    throw std::invalid_argument(
        "per-query edge lists need a gcon artifact session; this session "
        "serves precomputed logits");
  }
}

void InferenceSession::FillFeatureRow(const ServeRequest& request,
                                      const double* encoded_query_row,
                                      double* row) const {
  const std::size_t d = encoded_.cols();
  const int n = graph_->num_nodes();
  // The query node's own column and encoded row: a graph node, or the
  // feature-carrying query as the virtual node n, after every real node.
  const int self = request.has_features ? n : request.node;
  const double* self_row =
      request.has_features ? encoded_query_row
                           : encoded_.RowPtr(static_cast<std::size_t>(self));
  const auto encoded_row = [&](std::int32_t col) {
    return col == n ? self_row : encoded_.RowPtr(static_cast<std::size_t>(col));
  };
  // Eq. (16) reads only the query node's own edges however deep training
  // propagated, so every step m > 0 repeats the first hop block, which
  // SpmmAxpbyRow writes in place: Infer's SpmmAxpby row for this node.
  const double* hop = nullptr;
  for (std::size_t s = 0; s < artifact_->steps.size(); ++s) {
    double* block = row + s * d;
    if (artifact_->steps[s] == 0) {
      std::copy(self_row, self_row + d, block);
      continue;
    }
    if (hop != nullptr) {
      std::copy(hop, hop + d, block);
      continue;
    }
    if (!request.has_features && !request.has_edges) {
      // The default adjacency: the cached transition row, read verbatim.
      const std::size_t k0 = static_cast<std::size_t>(
          transition_->row_ptr()[static_cast<std::size_t>(self)]);
      SpmmAxpbyRow(transition_->col_idx().data() + k0,
                   transition_->values().data() + k0,
                   transition_->RowNnz(static_cast<std::size_t>(self)),
                   encoded_row, 1.0 - alpha_inf_, self_row, alpha_inf_, d,
                   block);
    } else {
      // A private edge list or an inductive query: the row BuildTransition
      // would write for this node on the graph the query implies.
      std::vector<std::int32_t> cols;
      std::vector<double> values;
      AppendTransitionRow(self, SanitizeEdges(request.edges, self, n),
                          kStandardTransitionClip, &cols, &values);
      SpmmAxpbyRow(cols.data(), values.data(), cols.size(), encoded_row,
                   1.0 - alpha_inf_, self_row, alpha_inf_, d, block);
    }
    hop = block;
  }
}

Matrix InferenceSession::QueryBatch(
    const std::vector<const ServeRequest*>& batch) const {
  const std::size_t b = batch.size();
  if (!per_query_) {
    Matrix out(b, num_classes_);
    for (std::size_t i = 0; i < b; ++i) {
      const double* src = dense_logits_.RowPtr(
          static_cast<std::size_t>(batch[i]->node));
      std::copy(src, src + num_classes_, out.RowPtr(i));
    }
    return out;
  }
  // Feature-carrying queries share one coalesced encoder forward — a row's
  // bits are independent of the batch's other rows, so this equals
  // encoding each query alone, which equals its row in the offline forward
  // over the augmented graph.
  Matrix encoded_queries;
  const CsrMatrix queries = InductiveRows(
      batch, static_cast<std::size_t>(graph_->feature_dim()));
  if (queries.rows() > 0) {
    encoded_queries = EncodeForInference(artifact_->encoder, queries);
  }
  // One coalesced feature block, one GEMM — the micro-batcher's payoff. A
  // GEMM row's bit pattern does not depend on the other rows (zero-padded
  // fringe tiles, fixed k-order), so this equals b independent queries.
  Matrix z(b, artifact_->steps.size() * encoded_.cols());
  std::size_t q = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const double* encoded_query_row =
        batch[i]->has_features ? encoded_queries.RowPtr(q++) : nullptr;
    FillFeatureRow(*batch[i], encoded_query_row, z.RowPtr(i));
  }
  for (const ServeRequest* request : batch) {
    if (request->trace) request->trace->Stamp(obs::kMarkGather);
  }
  Matrix logits = MatMul(z, artifact_->theta);
  for (const ServeRequest* request : batch) {
    if (request->trace) request->trace->Stamp(obs::kMarkGemm);
  }
  return logits;
}

std::vector<double> InferenceSession::QueryLogits(
    const ServeRequest& request) const {
  ValidateRequest(request);
  const std::vector<const ServeRequest*> batch = {&request};
  const Matrix logits = QueryBatch(batch);
  return logits.RowCopy(0);
}

}  // namespace gcon
