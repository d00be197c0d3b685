#include "graph/graph.h"

#include <algorithm>

#include "common/check.h"

namespace gcon {
namespace {

// Inserts `value` into sorted `list` if absent. Returns true on insert.
bool SortedInsert(std::vector<int>* list, int value) {
  auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it != list->end() && *it == value) return false;
  list->insert(it, value);
  return true;
}

// Erases `value` from sorted `list` if present. Returns true on erase.
bool SortedErase(std::vector<int>* list, int value) {
  auto it = std::lower_bound(list->begin(), list->end(), value);
  if (it == list->end() || *it != value) return false;
  list->erase(it);
  return true;
}

}  // namespace

bool Graph::AddEdge(int u, int v) {
  GCON_CHECK_GE(u, 0);
  GCON_CHECK_GE(v, 0);
  GCON_CHECK_LT(u, num_nodes());
  GCON_CHECK_LT(v, num_nodes());
  if (u == v) return false;
  if (!SortedInsert(&adj_[static_cast<std::size_t>(u)], v)) return false;
  SortedInsert(&adj_[static_cast<std::size_t>(v)], u);
  ++num_edges_;
  return true;
}

bool Graph::RemoveEdge(int u, int v) {
  GCON_CHECK_LT(u, num_nodes());
  GCON_CHECK_LT(v, num_nodes());
  if (!SortedErase(&adj_[static_cast<std::size_t>(u)], v)) return false;
  SortedErase(&adj_[static_cast<std::size_t>(v)], u);
  --num_edges_;
  return true;
}

bool Graph::HasEdge(int u, int v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) return false;
  const auto& list = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(list.begin(), list.end(), v);
}

std::vector<std::pair<int, int>> Graph::EdgeList() const {
  std::vector<std::pair<int, int>> edges;
  edges.reserve(num_edges_);
  for (int u = 0; u < num_nodes(); ++u) {
    for (int v : adj_[static_cast<std::size_t>(u)]) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

void Graph::set_features(const Matrix& x) {
  features_ = CsrMatrix::FromDense(x);
  dense_.Reset();
}

void Graph::set_features(CsrMatrix x) {
  GCON_CHECK(x.IsCanonicalNonzero()) << "feature CSR is not canonical";
  features_ = std::move(x);
  dense_.Reset();
}

const Matrix& Graph::features() const {
  std::lock_guard<std::mutex> lock(dense_.mu);
  if (dense_.matrix == nullptr) {
    dense_.matrix = std::make_unique<Matrix>(features_.ToDense());
  }
  return *dense_.matrix;
}

bool Graph::dense_features_built() const {
  std::lock_guard<std::mutex> lock(dense_.mu);
  return dense_.matrix != nullptr;
}

void Graph::set_label(int v, int label) {
  GCON_CHECK_LT(v, num_nodes());
  GCON_CHECK_GE(label, 0);
  GCON_CHECK_LT(label, num_classes_);
  labels_[static_cast<std::size_t>(v)] = label;
}

Matrix Graph::OneHotLabels() const {
  Matrix y(static_cast<std::size_t>(num_nodes()),
           static_cast<std::size_t>(num_classes_));
  for (int v = 0; v < num_nodes(); ++v) {
    y(static_cast<std::size_t>(v),
      static_cast<std::size_t>(labels_[static_cast<std::size_t>(v)])) = 1.0;
  }
  return y;
}

CsrMatrix Graph::AdjacencyCsr() const {
  const std::size_t n = static_cast<std::size_t>(num_nodes());
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(2 * num_edges_);
  values.reserve(2 * num_edges_);
  for (std::size_t u = 0; u < n; ++u) {
    row_ptr[u + 1] = row_ptr[u] + static_cast<std::int64_t>(adj_[u].size());
    for (int v : adj_[u]) {
      col_idx.push_back(v);
      values.push_back(1.0);
    }
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void Graph::CheckConsistency() const {
  std::size_t directed = 0;
  for (int u = 0; u < num_nodes(); ++u) {
    const auto& list = adj_[static_cast<std::size_t>(u)];
    GCON_CHECK(std::is_sorted(list.begin(), list.end()))
        << "adjacency of " << u << " not sorted";
    for (int v : list) {
      GCON_CHECK_NE(u, v) << "self loop at " << u;
      GCON_CHECK(HasEdge(v, u)) << "asymmetric edge " << u << "->" << v;
    }
    directed += list.size();
  }
  GCON_CHECK_EQ(directed, 2 * num_edges_);
  if (features_.rows() > 0 || features_.cols() > 0) {
    GCON_CHECK_EQ(features_.rows(), static_cast<std::size_t>(num_nodes()));
  }
  for (int v = 0; v < num_nodes(); ++v) {
    GCON_CHECK_GE(label(v), 0);
    GCON_CHECK_LT(label(v), num_classes_);
  }
}

}  // namespace gcon
