// Per-query inference over a published GCON artifact (or any trained
// registry GraphModel) — the read side of the paper's deployment story.
//
// The offline path (`GconArtifact::Infer`, `gcon_cli predict`) re-runs the
// whole-graph pipeline for every call: encode all n nodes, one fused SpMM
// over the full transition matrix, one n-row GEMM. A serving tier answers
// "logits for node v" thousands of times a second, so this session does the
// whole-graph work exactly once at load time (the encoder forward + row
// normalization — edge-free, hence artifact-safe; the transition matrix
// comes through PropagationCache, shared with any offline Infer over the
// same graph) and then answers each query from v's neighborhood alone, per
// Eq. (16): the one-hop row
//   hop_v = (1-α_I) · Ã_v · X̄ + α_I · X̄_v
// touches deg(v)+1 rows of the encoded matrix, and the logits are a single
// (s·d1)-by-c row product. GAP and DPAR make the same observation: with
// propagation decoupled from training, per-node inference is cheap.
//
// Inductive (feature-carrying) queries — the paper's scenario (iii) — go
// one step further: the request supplies a brand-new node's raw feature
// vector and its edge list into the serving population, and the session
// answers as if the graph had been augmented with that node offline. The
// query row is encoded through the artifact's MLP (row-wise, so one row's
// bits match its row in any batched forward), normalized, and propagated
// with the same Eq. (16) hop — the virtual node sits at index n, after
// every real node, so its transition row is fully determined by the query.
// Decoupled DP-GNNs can serve this without re-aggregation; per-hop
// architectures (GAP) cannot.
//
// Bitwise contract: every query path below reproduces the offline result
// exactly — QueryBatch row i equals row node_i of GconArtifact::Infer, and
// a feature-carrying answer equals row n of Infer on the graph augmented
// with the query node — because it runs the offline code, not a copy of it:
//   * encoding is EncodeForInference (core/gcon.h), as in Infer: once over
//     the graph at load, and over each batch's query rows as one canonical
//     CSR block (FromDense's nonzero rule, the form of
//     Graph::feature_csr()); the encoder's CSR and dense products give the
//     same bits for a row whatever the batch's other rows hold;
//   * the hop row is SpmmAxpbyRow (sparse/csr_matrix.h), the per-row body
//     of the SpmmAxpby that Infer's PrivateLogits runs, over the cached
//     transition row for default-adjacency queries, and over the row
//     AppendTransitionRow (propagation/transition.h) builds for
//     private-edge and inductive queries — the rule BuildTransition runs
//     for every node; α_I is the same InferenceAlpha;
//   * the final GEMM's per-row results are invariant to the batch's row
//     count (fringe tiles are zero-padded into the same micro-kernel), so
//     one coalesced product over B rows matches the n-row offline product.
// tests/serve_test.cc and tests/serve_inductive_test.cc enforce this with
// memcmp, not AllClose.
//
// Privacy: everything served is post-processing of the released (ε, δ)-DP
// artifact plus the *query's own* features and edges — the same data the
// querying node already holds — so serving consumes no additional privacy
// budget.
#ifndef GCON_SERVE_INFERENCE_SESSION_H_
#define GCON_SERVE_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "model/model.h"
#include "obs/trace.h"
#include "sparse/csr_matrix.h"

namespace gcon {

/// One node-prediction query.
struct ServeRequest {
  std::int64_t id = 0;  ///< echoed back; correlates pipelined wire requests
  /// Named model to route to (multi-model serving); empty means the
  /// server's default (first-listed) model.
  std::string model;
  int node = -1;        ///< node index in the serving graph, [0, n)
  /// When true, `edges` replaces the serving graph's adjacency for this
  /// query (the private-edge scenario: the querying node reveals its own
  /// edge list and nothing else). Self-loops, duplicates, and out-of-range
  /// endpoints are ignored. For feature-carrying queries, `edges` is the
  /// new node's edge list into the serving population (default: isolated).
  bool has_edges = false;
  std::vector<int> edges;
  /// When true, this is an inductive query: `features` holds the raw
  /// feature vector of a node *not in the serving graph* (length = the
  /// graph's feature dim) and `node` must stay -1. Served as if the graph
  /// had been augmented with this node at index n. Both transports decode
  /// into this one vector (the binary one widens its f32 values exactly).
  bool has_features = false;
  std::vector<double> features;
  /// Optional deadline, microseconds from submission; 0 = none. A query
  /// still queued when its deadline passes is dropped by its batch
  /// immediately before the GEMM and fails with a structured
  /// `deadline_exceeded` error instead of wasting the batch slot.
  std::int64_t deadline_us = 0;
  /// Admin payload for the `publish` verb: filesystem path of the artifact
  /// to load. Unused (and rejected by the parser) on query lines.
  std::string path;
  /// Span timeline for sampled requests (obs/trace.h); null for the
  /// unsampled majority, making every stamp site a single pointer check.
  /// The pointee is deliberately mutable through const ServeRequest& —
  /// stamping a trace observes the request, it does not alter it — and the
  /// shared_ptr lets the wire layer keep the timeline alive after the
  /// request itself has been consumed by the batch.
  std::shared_ptr<obs::RequestTrace> trace;
};

/// Answer to one query.
struct ServeResponse {
  std::int64_t id = 0;
  int node = -1;                ///< -1 for feature-carrying queries
  int label = -1;               ///< argmax of logits (ties -> smallest)
  std::vector<double> logits;   ///< one value per class
  double latency_us = 0.0;      ///< enqueue-to-completion (set by the server)
};

/// Immutable, thread-safe query engine over one loaded model. All methods
/// are const and safe to call concurrently.
class InferenceSession {
 public:
  /// Artifact mode: per-query Eq. (16) inference. `graph` supplies the
  /// serving population (features always; edges as the default adjacency
  /// for queries without a private edge list). The encoder forward over all
  /// nodes runs here, once, and the transition matrix is fetched through
  /// PropagationCache (a session over a graph some offline Infer already
  /// touched pays nothing to build it). The shared_ptr overloads let a
  /// multi-model server host one copy of the population, not one per
  /// model — the graph is read-only to every session.
  InferenceSession(GconArtifact artifact, Graph graph);
  InferenceSession(GconArtifact artifact,
                   std::shared_ptr<const Graph> graph);

  /// Registry-model mode. When the model publishes a release artifact
  /// (GraphModel::ReleaseArtifact, e.g. "gcon"), the session copies it and
  /// behaves exactly like artifact mode — per-query propagation, private
  /// edge lists, and feature-carrying queries all work. Otherwise it
  /// computes model.Predict(graph) once and answers from the stored rows;
  /// per-query edges and features are rejected (the model already consumed
  /// the adjacency at whatever granularity it supports).
  InferenceSession(const GraphModel& model, Graph graph);
  InferenceSession(const GraphModel& model, std::shared_ptr<const Graph> graph);

  /// Artifact mode from a "gcon-model v1" file (core/model_io.h LoadModel;
  /// throws std::runtime_error naming the path on a bad artifact).
  static InferenceSession FromFile(const std::string& model_path, Graph graph);
  static InferenceSession FromFile(const std::string& model_path,
                                   std::shared_ptr<const Graph> graph);

  int num_nodes() const { return graph_->num_nodes(); }
  int num_classes() const { return static_cast<int>(num_classes_); }
  int feature_dim() const { return graph_->feature_dim(); }
  /// The serving population (never null). Hot-swap (ModelRouter::Publish)
  /// builds the replacement session over this same shared graph so a swap
  /// never duplicates the population in memory.
  const std::shared_ptr<const Graph>& graph_ptr() const { return graph_; }
  /// True in artifact mode (per-query propagation; private edges and
  /// feature-carrying queries allowed).
  bool per_query() const { return per_query_; }
  /// The loaded artifact's privacy budget (0 in precomputed-logits mode) —
  /// feeds the server's cumulative gcon_dp_epsilon gauge per model.
  double artifact_epsilon() const {
    return artifact_ ? artifact_->epsilon : 0.0;
  }
  /// The artifact's delta half of the receipt (0 in precomputed mode).
  double artifact_delta() const {
    return artifact_ ? artifact_->delta : 0.0;
  }
  /// Content fingerprint of the loaded artifact (theta bytes, steps, and
  /// the privacy receipt; 0 in precomputed-logits mode). The budget ledger
  /// uses it to tell "a restart serving the same release" (already
  /// charged) from "a fresh release" (charge again).
  std::uint64_t artifact_fingerprint() const { return artifact_fp_; }

  /// Throws std::invalid_argument when `request` cannot be served (node out
  /// of range; edges/features in precomputed-logits mode; features of the
  /// wrong length; a query carrying both 'node' and 'features').
  void ValidateRequest(const ServeRequest& request) const;

  /// Logits for one query; bitwise identical to the offline whole-graph
  /// inference row of request.node (when no private edge list overrides the
  /// graph adjacency), or — for a feature-carrying query — to row n of
  /// offline inference on the graph augmented with the query node.
  std::vector<double> QueryLogits(const ServeRequest& request) const;

  /// Coalesced batch: gathers every query's propagated feature row into one
  /// block and runs a single B-row GEMM against Θ (feature-carrying rows
  /// first share one encoder forward over a CSR block built straight from
  /// their `features`). Row i answers batch[i].
  /// This is the micro-batcher's kernel; row results are independent of the
  /// batch composition (see header comment), which is what makes batching
  /// transparent to clients.
  Matrix QueryBatch(const std::vector<const ServeRequest*>& batch) const;

 private:
  /// Shared body of the per-query constructors: consistency checks, the
  /// one-time encoder forward, and the cached transition fetch.
  void InitArtifact(GconArtifact artifact,
                    std::shared_ptr<const Graph> graph);

  /// Fills `row` (length steps*d1 in artifact mode) with the propagated
  /// feature blocks for one query. `encoded_query_row` is the encoded,
  /// normalized row of a feature-carrying query (nullptr for in-graph
  /// queries).
  void FillFeatureRow(const ServeRequest& request,
                      const double* encoded_query_row, double* row) const;

  bool per_query_ = false;
  /// The serving population — immutable and shareable across the sessions
  /// of a multi-model server (never null after construction).
  std::shared_ptr<const Graph> graph_;
  std::size_t num_classes_ = 0;

  // Artifact mode (empty in precomputed-logits mode).
  std::optional<GconArtifact> artifact_;
  std::uint64_t artifact_fp_ = 0;  ///< content hash, set by InitArtifact
  Matrix encoded_;        ///< X̄ after row normalization (n x d1)
  double alpha_inf_ = 0;  ///< resolved inference restart probability
  /// BuildTransition(graph_) via PropagationCache — rows are read verbatim
  /// for default-adjacency queries.
  std::shared_ptr<const CsrMatrix> transition_;

  // Precomputed-logits mode.
  Matrix dense_logits_;  ///< model.Predict(graph), n x c
};

}  // namespace gcon

#endif  // GCON_SERVE_INFERENCE_SESSION_H_
