#include "propagation/transition.h"

#include <algorithm>

#include "common/check.h"

namespace gcon {

CsrMatrix BuildTransition(const Graph& graph, double p) {
  GCON_CHECK_GT(p, 0.0);
  GCON_CHECK_LE(p, 0.5);
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(2 * graph.num_edges() + n);
  values.reserve(col_idx.capacity());
  // Adjacency lists are sorted, distinct and loop-free (Graph's invariant),
  // so the rows are canonical as appended.
  for (std::size_t i = 0; i < n; ++i) {
    AppendTransitionRow(static_cast<int>(i),
                        graph.Neighbors(static_cast<int>(i)), p, &col_idx,
                        &values);
    row_ptr[i + 1] = static_cast<std::int64_t>(values.size());
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

void AppendTransitionRow(int self, const std::vector<int>& neighbors,
                         double p, std::vector<std::int32_t>* col_idx,
                         std::vector<double>* values) {
  const double k = static_cast<double>(neighbors.size());
  const double off = std::min(1.0 / (k + 1.0), p);
  double diag = 1.0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) diag -= off;
  // The diagonal goes between the neighbours below and above `self`.
  const auto split = std::lower_bound(neighbors.begin(), neighbors.end(), self);
  const std::size_t below = static_cast<std::size_t>(split - neighbors.begin());
  col_idx->insert(col_idx->end(), neighbors.begin(), split);
  col_idx->push_back(self);
  col_idx->insert(col_idx->end(), split, neighbors.end());
  values->insert(values->end(), below, off);
  values->push_back(diag);
  values->insert(values->end(), neighbors.size() - below, off);
}

}  // namespace gcon
