#include "dp/graph_perturbation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"

namespace gcon {
namespace {

// New graph with the same nodes/labels/features but no edges.
Graph EmptyCopy(const Graph& graph) {
  Graph out(graph.num_nodes(), graph.num_classes());
  for (int v = 0; v < graph.num_nodes(); ++v) {
    out.set_label(v, graph.label(v));
  }
  out.set_features(graph.feature_csr());
  return out;
}

// Keeps a uniformly random subset of `keep` original edges.
void AddSurvivingEdges(const Graph& source, std::int64_t keep, Rng* rng,
                       Graph* out) {
  const auto edges = source.EdgeList();
  GCON_CHECK_LE(keep, static_cast<std::int64_t>(edges.size()));
  const std::vector<int> chosen = rng->SampleWithoutReplacement(
      static_cast<int>(edges.size()), static_cast<int>(keep));
  for (int idx : chosen) {
    const auto& [u, v] = edges[static_cast<std::size_t>(idx)];
    out->AddEdge(u, v);
  }
}

// Adds `count` uniformly random node pairs that are NOT edges of `source`
// (and not yet added to `out`). Rejection sampling is efficient because the
// graphs of interest are sparse (|E| << n^2).
void AddRandomNonEdges(const Graph& source, std::int64_t count, Rng* rng,
                       Graph* out) {
  const std::uint64_t n = static_cast<std::uint64_t>(source.num_nodes());
  std::int64_t added = 0;
  std::int64_t attempts = 0;
  const std::int64_t max_attempts = 100 * count + 1000;
  while (added < count && attempts < max_attempts) {
    ++attempts;
    const int u = static_cast<int>(rng->UniformInt(n));
    const int v = static_cast<int>(rng->UniformInt(n));
    if (u == v) continue;
    if (source.HasEdge(u, v)) continue;
    if (out->AddEdge(u, v)) ++added;
  }
  if (added < count) {
    GCON_LOG(WARNING) << "AddRandomNonEdges: only placed " << added << "/"
                      << count;
  }
}

std::size_t NumPairs(const Graph& graph) {
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  return n * (n - 1) / 2;
}

}  // namespace

namespace internal {

double LaplaceTail(double shift, double eps, double t) {
  const double x = (t - shift) * eps;  // (t - shift) / b with b = 1/eps
  if (x >= 0.0) return 0.5 * std::exp(-x);
  return 1.0 - 0.5 * std::exp(x);
}

double SolveLapGraphThreshold(std::size_t num_edges, std::size_t num_pairs,
                              double eps2, double target) {
  GCON_CHECK_LE(num_edges, num_pairs);
  const double m1 = static_cast<double>(num_edges);
  const double m0 = static_cast<double>(num_pairs - num_edges);
  auto expected = [&](double t) {
    return m1 * LaplaceTail(1.0, eps2, t) + m0 * LaplaceTail(0.0, eps2, t);
  };
  // expected() is strictly decreasing in t; bracket the solution.
  double lo = -60.0 / eps2;
  double hi = 1.0 + 60.0 / eps2;
  if (expected(lo) <= target) return lo;
  if (expected(hi) >= target) return hi;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expected(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace internal

Graph EdgeRand(const Graph& graph, double epsilon, Rng* rng,
               std::size_t max_edges) {
  GCON_CHECK_GT(epsilon, 0.0);
  const std::size_t pairs = NumPairs(graph);
  const double p_flip = 1.0 / (1.0 + std::exp(epsilon));
  const double expected_edges =
      static_cast<double>(graph.num_edges()) * (1.0 - p_flip) +
      static_cast<double>(pairs - graph.num_edges()) * p_flip;
  GCON_CHECK_LE(expected_edges, static_cast<double>(max_edges))
      << "EdgeRand would produce ~" << expected_edges
      << " edges; use LapGraph for this scale";
  Graph out = EmptyCopy(graph);
  const std::int64_t keep =
      rng->Binomial(static_cast<std::int64_t>(graph.num_edges()), 1.0 - p_flip);
  AddSurvivingEdges(graph, keep, rng, &out);
  const std::int64_t inject = rng->Binomial(
      static_cast<std::int64_t>(pairs - graph.num_edges()), p_flip);
  AddRandomNonEdges(graph, inject, rng, &out);
  return out;
}

Graph LapGraph(const Graph& graph, double epsilon, Rng* rng,
               double count_split) {
  GCON_CHECK_GT(epsilon, 0.0);
  GCON_CHECK_GT(count_split, 0.0);
  GCON_CHECK_LT(count_split, 1.0);
  const double eps1 = count_split * epsilon;
  const double eps2 = epsilon - eps1;
  const std::size_t pairs = NumPairs(graph);

  // Step 1: noisy edge count (sensitivity 1).
  double noisy_count =
      static_cast<double>(graph.num_edges()) + rng->Laplace(1.0 / eps1);
  noisy_count = std::clamp(noisy_count, 0.0, static_cast<double>(pairs));

  // Step 2: per-cell Laplace noise + top-m~ selection, simulated via the
  // threshold construction documented in the header.
  const double t = internal::SolveLapGraphThreshold(graph.num_edges(), pairs,
                                                    eps2, noisy_count);
  const double p1 = internal::LaplaceTail(1.0, eps2, t);
  const double p0 = internal::LaplaceTail(0.0, eps2, t);

  Graph out = EmptyCopy(graph);
  const std::int64_t keep =
      rng->Binomial(static_cast<std::int64_t>(graph.num_edges()), p1);
  AddSurvivingEdges(graph, keep, rng, &out);
  const std::int64_t inject = rng->Binomial(
      static_cast<std::int64_t>(pairs - graph.num_edges()), p0);
  AddRandomNonEdges(graph, inject, rng, &out);
  return out;
}

}  // namespace gcon
