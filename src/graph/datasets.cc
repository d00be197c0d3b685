#include "graph/datasets.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"

namespace gcon {
namespace {

// Weighted sampler over a fixed set of node ids via prefix sums + binary
// search. Weights define the degree skew of the generated graph.
class WeightedSampler {
 public:
  WeightedSampler(std::vector<int> ids, const std::vector<double>& weight) {
    ids_ = std::move(ids);
    prefix_.reserve(ids_.size());
    double acc = 0.0;
    for (int id : ids_) {
      acc += weight[static_cast<std::size_t>(id)];
      prefix_.push_back(acc);
    }
  }

  bool empty() const { return ids_.empty(); }

  int Sample(Rng* rng) const {
    GCON_CHECK(!ids_.empty());
    const double u = rng->NextDouble() * prefix_.back();
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), u);
    const std::size_t idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - prefix_.begin()), ids_.size() - 1);
    return ids_[idx];
  }

 private:
  std::vector<int> ids_;
  std::vector<double> prefix_;
};

}  // namespace

DatasetSpec CoraMlSpec() {
  DatasetSpec spec;
  spec.name = "cora_ml";
  spec.num_nodes = 2995;
  spec.num_undirected_edges = 8158;  // Table II: 16,316 directed
  spec.num_features = 2879;
  spec.num_classes = 7;
  spec.homophily = 0.81;
  spec.feature_density = 0.012;
  spec.topic_bias = 0.42;
  return spec;
}

DatasetSpec CiteSeerSpec() {
  DatasetSpec spec;
  spec.name = "citeseer";
  spec.num_nodes = 3327;
  spec.num_undirected_edges = 4552;  // Table II: 9,104 directed
  spec.num_features = 3703;
  spec.num_classes = 6;
  spec.homophily = 0.71;
  spec.feature_density = 0.009;
  spec.topic_bias = 0.40;
  return spec;
}

DatasetSpec PubMedSpec() {
  DatasetSpec spec;
  spec.name = "pubmed";
  spec.num_nodes = 19717;
  spec.num_undirected_edges = 44324;  // Table II: 88,648 directed
  spec.num_features = 500;
  spec.num_classes = 3;
  spec.homophily = 0.79;
  spec.feature_density = 0.06;
  spec.topic_bias = 0.45;
  return spec;
}

DatasetSpec ActorSpec() {
  DatasetSpec spec;
  spec.name = "actor";
  spec.num_nodes = 7600;
  spec.num_undirected_edges = 15009;  // Table II: 30,019 directed (rounded)
  spec.num_features = 932;
  spec.num_classes = 5;
  spec.homophily = 0.22;
  spec.feature_density = 0.035;
  spec.topic_bias = 0.15;  // heterophilous data also has weaker features
  spec.planetoid_split = false;  // Appendix P: 60/20/20 random splits
  return spec;
}

DatasetSpec TinySpec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.num_nodes = 150;
  spec.num_undirected_edges = 450;
  spec.num_features = 32;
  spec.num_classes = 3;
  spec.homophily = 0.8;
  spec.feature_density = 0.2;
  spec.train_per_class = 10;
  spec.val_size = 30;
  spec.test_size = 60;
  return spec;
}

DatasetSpec SpecByName(const std::string& name) {
  if (name == "cora_ml") return CoraMlSpec();
  if (name == "citeseer") return CiteSeerSpec();
  if (name == "pubmed") return PubMedSpec();
  if (name == "actor") return ActorSpec();
  if (name == "tiny") return TinySpec();
  GCON_CHECK(false) << "unknown dataset: " << name;
  return DatasetSpec{};
}

std::vector<DatasetSpec> PaperSpecs() {
  return {CoraMlSpec(), CiteSeerSpec(), PubMedSpec(), ActorSpec()};
}

DatasetSpec Scaled(const DatasetSpec& spec, double factor) {
  GCON_CHECK_GT(factor, 0.0);
  GCON_CHECK_LE(factor, 1.0);
  if (factor == 1.0) return spec;
  DatasetSpec out = spec;
  out.num_nodes = std::max(60, static_cast<int>(spec.num_nodes * factor));
  out.num_undirected_edges = std::max<std::size_t>(
      static_cast<std::size_t>(out.num_nodes),
      static_cast<std::size_t>(
          static_cast<double>(spec.num_undirected_edges) * factor));
  out.num_features = std::max(
      32, static_cast<int>(spec.num_features * std::sqrt(factor)));
  out.val_size = std::max(20, static_cast<int>(spec.val_size * factor));
  out.test_size = std::max(40, static_cast<int>(spec.test_size * factor));
  // Keep enough labeled nodes for the convex stage to be meaningful.
  out.train_per_class = std::max(5, spec.train_per_class);
  return out;
}

Graph GenerateDataset(const DatasetSpec& spec, Rng* rng) {
  GCON_CHECK_GE(spec.num_classes, 2);
  GCON_CHECK_GE(spec.num_nodes, spec.num_classes);
  Graph graph(spec.num_nodes, spec.num_classes);

  // --- labels: balanced assignment, then shuffled --------------------------
  {
    std::vector<int> labels(static_cast<std::size_t>(spec.num_nodes));
    for (int i = 0; i < spec.num_nodes; ++i) {
      labels[static_cast<std::size_t>(i)] = i % spec.num_classes;
    }
    const std::vector<int> perm = rng->Permutation(spec.num_nodes);
    for (int i = 0; i < spec.num_nodes; ++i) {
      graph.set_label(i, labels[static_cast<std::size_t>(perm[
          static_cast<std::size_t>(i)])]);
    }
  }

  // --- degree weights: rank^{-gamma}, ranks randomly assigned --------------
  std::vector<double> weight(static_cast<std::size_t>(spec.num_nodes));
  {
    const std::vector<int> rank = rng->Permutation(spec.num_nodes);
    for (int i = 0; i < spec.num_nodes; ++i) {
      weight[static_cast<std::size_t>(i)] =
          std::pow(static_cast<double>(rank[static_cast<std::size_t>(i)]) + 1.0,
                   -spec.degree_exponent);
    }
  }

  // Per-class and global samplers.
  std::vector<std::vector<int>> class_members(
      static_cast<std::size_t>(spec.num_classes));
  for (int v = 0; v < spec.num_nodes; ++v) {
    class_members[static_cast<std::size_t>(graph.label(v))].push_back(v);
  }
  std::vector<WeightedSampler> class_sampler;
  class_sampler.reserve(static_cast<std::size_t>(spec.num_classes));
  for (int c = 0; c < spec.num_classes; ++c) {
    class_sampler.emplace_back(class_members[static_cast<std::size_t>(c)],
                               weight);
  }
  std::vector<int> all_ids(static_cast<std::size_t>(spec.num_nodes));
  for (int v = 0; v < spec.num_nodes; ++v) all_ids[static_cast<std::size_t>(v)] = v;
  WeightedSampler global_sampler(all_ids, weight);

  // --- edges: label-aware preferential attachment --------------------------
  // Per-node local homophily ~ Beta around the global target: real graphs
  // have heterogeneous neighborhoods, and without this the per-class
  // neighbor counts would be an unrealistically clean label signal.
  std::vector<double> local_homophily(static_cast<std::size_t>(spec.num_nodes));
  {
    const double k = spec.homophily_concentration;
    const double a = std::max(1e-3, spec.homophily * k);
    const double b = std::max(1e-3, (1.0 - spec.homophily) * k);
    for (auto& h : local_homophily) {
      h = rng->Beta(a, b);
    }
  }
  const std::size_t target = spec.num_undirected_edges;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 200 * target + 10000;
  while (graph.num_edges() < target && attempts < max_attempts) {
    ++attempts;
    const int u = global_sampler.Sample(rng);
    const bool same =
        rng->Bernoulli(local_homophily[static_cast<std::size_t>(u)]);
    int v = -1;
    if (same) {
      v = class_sampler[static_cast<std::size_t>(graph.label(u))].Sample(rng);
    } else {
      // Rejection from the global sampler; classes are balanced so this
      // terminates quickly.
      for (int tries = 0; tries < 64; ++tries) {
        const int cand = global_sampler.Sample(rng);
        if (graph.label(cand) != graph.label(u)) {
          v = cand;
          break;
        }
      }
      if (v < 0) continue;
    }
    if (u == v) continue;
    graph.AddEdge(u, v);
  }
  if (graph.num_edges() < target) {
    GCON_LOG(WARNING) << spec.name << ": generated " << graph.num_edges()
                      << "/" << target << " edges before attempt cap";
  }

  // --- features: class-conditional sparse bag of words ---------------------
  const int d0 = spec.num_features;
  const int block = std::max(1, d0 / spec.num_classes);
  // Built straight into CSR: each row's drawn words, sorted and deduplicated.
  std::vector<std::int64_t> row_ptr(
      static_cast<std::size_t>(spec.num_nodes) + 1, 0);
  std::vector<std::int32_t> col_idx;
  std::vector<int> words;
  for (int v = 0; v < spec.num_nodes; ++v) {
    const int label = graph.label(v);
    const int block_begin = label * block;
    const int block_end = std::min(d0, block_begin + block);
    std::int64_t active = rng->Binomial(d0, spec.feature_density);
    if (active < 2) active = 2;
    words.clear();
    for (std::int64_t w = 0; w < active; ++w) {
      int word;
      if (rng->Bernoulli(spec.topic_bias) && block_end > block_begin) {
        word = block_begin + static_cast<int>(rng->UniformInt(
                                 static_cast<std::uint64_t>(block_end - block_begin)));
      } else {
        word = static_cast<int>(rng->UniformInt(static_cast<std::uint64_t>(d0)));
      }
      words.push_back(word);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    col_idx.insert(col_idx.end(), words.begin(), words.end());
    row_ptr[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(col_idx.size());
  }
  std::vector<double> values(col_idx.size(), 1.0);
  graph.set_features(CsrMatrix(static_cast<std::size_t>(spec.num_nodes),
                               static_cast<std::size_t>(d0), std::move(row_ptr),
                               std::move(col_idx), std::move(values)));
  return graph;
}

Split MakeSplit(const DatasetSpec& spec, const Graph& graph, Rng* rng) {
  if (spec.planetoid_split) {
    return PlanetoidSplit(graph, spec.train_per_class, spec.val_size,
                          spec.test_size, rng);
  }
  return ProportionalSplit(graph, 0.6, 0.2, 0.2, rng);
}

}  // namespace gcon
