#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "graph/io.h"
#include "graph/splits.h"
#include "graph/stats.h"
#include "rng/rng.h"

namespace gcon {
namespace {

Graph TriangleGraph() {
  Graph g(4, 2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.set_label(0, 0);
  g.set_label(1, 0);
  g.set_label(2, 1);
  g.set_label(3, 1);
  Matrix x(4, 2);
  x(0, 0) = 1.0;
  x(1, 0) = 1.0;
  x(2, 1) = 1.0;
  x(3, 1) = 1.0;
  g.set_features(std::move(x));
  return g;
}

TEST(Graph, AddRemoveEdge) {
  Graph g(5, 2);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(0, 1));  // duplicate
  EXPECT_FALSE(g.AddEdge(1, 0));  // same undirected edge
  EXPECT_FALSE(g.AddEdge(2, 2));  // self loop rejected
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.RemoveEdge(1, 0));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, DegreesAndNeighbors) {
  const Graph g = TriangleGraph();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(3), 0);
  const auto& nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 2);
}

TEST(Graph, EdgeListCanonical) {
  const Graph g = TriangleGraph();
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) {
    EXPECT_LT(u, v);
  }
}

TEST(Graph, OneHotLabels) {
  const Graph g = TriangleGraph();
  const Matrix y = g.OneHotLabels();
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(2, 1), 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(y(i, 0) + y(i, 1), 1.0);
  }
}

TEST(Graph, AdjacencyCsrSymmetricNoSelfLoops) {
  const Graph g = TriangleGraph();
  const CsrMatrix a = g.AdjacencyCsr();
  EXPECT_EQ(a.nnz(), 6u);  // 3 undirected edges = 6 entries
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a.At(static_cast<std::size_t>(i),
                          static_cast<std::size_t>(i)),
                     0.0);
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.At(static_cast<std::size_t>(i),
                            static_cast<std::size_t>(j)),
                       a.At(static_cast<std::size_t>(j),
                            static_cast<std::size_t>(i)));
    }
  }
}

TEST(Graph, CheckConsistencyPasses) {
  const Graph g = TriangleGraph();
  g.CheckConsistency();  // aborts on violation
}

TEST(Stats, HomophilyRatio) {
  // Triangle 0-1-2 with labels {0,0,1}: node 0 has neighbors {1 (same), 2
  // (diff)} -> 1/2; node 1 likewise 1/2; node 2 has {0,1} both diff -> 0.
  // Node 3 is isolated and skipped. Mean = (0.5+0.5+0)/3.
  const Graph g = TriangleGraph();
  EXPECT_NEAR(HomophilyRatio(g), (0.5 + 0.5 + 0.0) / 3.0, 1e-12);
}

TEST(Stats, DegreeStats) {
  const Graph g = TriangleGraph();
  EXPECT_EQ(MaxDegree(g), 2);
  EXPECT_DOUBLE_EQ(MeanDegree(g), 2.0 * 3.0 / 4.0);
  EXPECT_EQ(IsolatedCount(g), 1);
}

TEST(Stats, ClassFraction) {
  const Graph g = TriangleGraph();
  EXPECT_DOUBLE_EQ(ClassFraction(g, 0), 0.5);
  EXPECT_DOUBLE_EQ(ClassFraction(g, 1), 0.5);
}

TEST(Io, SaveLoadRoundTrip) {
  const Graph g = TriangleGraph();
  const std::string path = "/tmp/gcon_io_test_graph.txt";
  SaveGraph(g, path);
  const Graph loaded = LoadGraph(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.num_classes(), g.num_classes());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  for (int v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(loaded.label(v), g.label(v));
  }
  EXPECT_TRUE(loaded.features().AllClose(g.features()));
  EXPECT_TRUE(loaded.HasEdge(0, 1));
  EXPECT_TRUE(loaded.HasEdge(0, 2));
  EXPECT_FALSE(loaded.HasEdge(0, 3));
}

TEST(Io, SaveLoadRoundTripsEveryDoubleExactly) {
  // Six significant digits would reload 1/3 as 0.333333.
  Graph g(2, 2);
  Matrix x(2, 3);
  x(0, 0) = 1.0 / 3.0;
  x(0, 2) = -123456.789012345678;
  x(1, 1) = 1e-310;  // subnormal
  x(1, 2) = 0.1 + 0.2;
  g.set_features(x);
  const std::string path = "/tmp/gcon_io_test_exact.graph";
  SaveGraph(g, path);
  const Graph loaded = LoadGraph(path);
  std::remove(path.c_str());
  EXPECT_EQ(std::memcmp(loaded.features().data(), x.data(),
                        x.size() * sizeof(double)),
            0);
  // Integer features still print bare, as bag-of-words files always have.
  Graph ones(1, 1);
  ones.set_features(Matrix{{1.0, 0.0, 2.0}});
  SaveGraph(ones, path);
  std::ifstream ones_in(path);
  const std::string ones_text((std::istreambuf_iterator<char>(ones_in)),
                              std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_NE(ones_text.find("\nF 0 0:1 2:2\n"), std::string::npos) << ones_text;
}

TEST(Io, SaveGraphRefusesNonFiniteFeatures) {
  // LoadGraph refuses `nan` and `inf`, so SaveGraph must not write them:
  // it throws naming the path, node and feature, and leaves no file.
  const std::string path = "/tmp/gcon_io_test_nonfinite.graph";
  for (const double bad : {std::nan(""), -HUGE_VAL}) {
    std::remove(path.c_str());
    Graph g(2, 2);
    Matrix x(2, 3);
    x(0, 0) = 1.0;
    x(1, 2) = bad;
    g.set_features(x);
    try {
      SaveGraph(g, path);
      ADD_FAILURE() << "SaveGraph wrote a non-finite feature (" << bad << ")";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find("node 1"), std::string::npos) << message;
      EXPECT_NE(message.find("feature 2"), std::string::npos) << message;
      EXPECT_FALSE(std::filesystem::exists(path));
    }
  }
  std::remove(path.c_str());
}

TEST(Graph, FeatureStoreRoundTripsThroughCsrAndDenseView) {
  Matrix x(3, 4);
  x(0, 1) = 2.5;
  x(0, 3) = -0.0;  // a zero: not stored
  x(1, 0) = -1e-300;
  x(2, 2) = 0.0;   // an explicit zero: not stored
  x(2, 3) = 7.0;
  Graph g(3, 1);
  g.set_features(x);
  const CsrMatrix& csr = g.feature_csr();
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_EQ(csr.cols(), 4u);
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_TRUE(csr.IsCanonicalNonzero());
  EXPECT_FALSE(g.dense_features_built());
  const Matrix& dense = g.features();
  EXPECT_TRUE(g.dense_features_built());
  EXPECT_EQ(&dense, &g.features());  // built once, then kept
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      // Equal values everywhere; a stored -0.0 reads back as +0.0.
      EXPECT_EQ(dense(i, j), x(i, j)) << i << "," << j;
      if (x(i, j) == 0.0) {
        EXPECT_FALSE(std::signbit(dense(i, j)));
      }
    }
  }
  // Dense view -> CSR -> dense view is the identity.
  Graph h(3, 1);
  h.set_features(dense);
  EXPECT_EQ(h.feature_csr().row_ptr(), csr.row_ptr());
  EXPECT_EQ(h.feature_csr().col_idx(), csr.col_idx());
  EXPECT_EQ(std::memcmp(h.feature_csr().values().data(), csr.values().data(),
                        csr.nnz() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(h.features().data(), dense.data(),
                        dense.size() * sizeof(double)),
            0);
  // New features drop the old view; a copy builds its own.
  const Graph copy = g;
  EXPECT_FALSE(copy.dense_features_built());
  g.set_features(Matrix(3, 4, 1.0));
  EXPECT_FALSE(g.dense_features_built());
  EXPECT_EQ(g.features()(2, 2), 1.0);
  EXPECT_EQ(copy.features()(0, 1), 2.5);
}

TEST(Graph, DenseViewBuildsOnceUnderConcurrentCallers) {
  Matrix x(64, 32);
  for (std::size_t i = 0; i < 64; ++i) x(i, (i * 7) % 32) = 1.0 + i;
  Graph g(64, 1);
  g.set_features(x);
  std::vector<const Matrix*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&g, &seen, t] { seen[t] = &g.features(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Matrix* view : seen) EXPECT_EQ(view, seen[0]);
  EXPECT_TRUE(seen[0]->AllClose(x, 0.0));
}

// --- malformed graph files ---------------------------------------------------
// LoadGraph throws a runtime_error naming the file, the line and the defect,
// and refuses an out-of-range index before writing anything with it.

std::string LoadGraphError(const std::string& text) {
  std::istringstream in(text);
  try {
    LoadGraph(in, "<test>");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

const char kHeader[] = "gcon-graph v1\nnodes 2 classes 2 features 3 edges 0\n";

TEST(Io, LoadGraphRejectsMalformedFiles) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "line 1: empty file"},
      {"gcon-graph v9\n", "line 1: bad magic 'gcon-graph v9'"},
      {"gcon-graph v1\n", "line 2: missing header line"},
      {"gcon-graph v1\nnodes 2 classes 2 features 3\n", "line 2: bad header"},
      {"gcon-graph v1\nnodes -2 classes 2 features 3 edges 0\n",
       "line 2: bad node count '-2'"},
      {"gcon-graph v1\nnodes 2 classes 0 features 3 edges 0\nL 0 0\n",
       "line 2: bad class count '0'"},
      {"gcon-graph v1\nnodes 99999 classes 2 features 3 edges 0\n",
       "line 2: header declares 99999 nodes but the file has only 2 lines"},
      {std::string(kHeader) + "L 2 0\n", "line 3: node '2' is not in [0, 2)"},
      {std::string(kHeader) + "L 0 2\n", "line 3: label '2' is not in [0, 2)"},
      {std::string(kHeader) + "L 0\n", "line 3: want 'L <node> <label>'"},
      {std::string(kHeader) + "F -1 0:1\n",
       "line 3: node '-1' is not in [0, 2)"},
      {std::string(kHeader) + "F 0 3:1\n",
       "line 3: feature index '3' is not in [0, 3)"},
      {std::string(kHeader) + "F 0 1\n", "line 3: bad feature '1'"},
      {std::string(kHeader) + "F 0 1:nan\n",
       "line 3: non-finite or malformed feature value 'nan'"},
      {std::string(kHeader) + "F 0 1:1e999\n",
       "non-finite or malformed feature value '1e999'"},
      {std::string(kHeader) + "F 0 1:0.5x\n",
       "non-finite or malformed feature value '0.5x'"},
      {std::string(kHeader) + "\nE 0 5\n", "line 4: node '5' is not in [0, 2)"},
      {std::string(kHeader) + "E 1 1\n", "line 3: self loop at 1"},
      {"gcon-graph v1\nnodes 2 classes 2 features 3 edges 2\nE 0 1\nE 1 0\n",
       "line 4: duplicate edge 1-0"},
      {std::string(kHeader) + "E 0 1\n",
       "edge count mismatch: header declares 0, file lists 1"},
      {std::string(kHeader) + "Q 0 1\n", "line 3: bad record type 'Q'"},
  };
  for (const auto& [text, want] : cases) {
    const std::string error = LoadGraphError(text);
    EXPECT_NE(error.find("graph file '<test>'"), std::string::npos) << error;
    EXPECT_NE(error.find(want), std::string::npos)
        << "input:\n" << text << "error: " << error;
  }
}

TEST(Io, RepeatedFeatureIndexKeepsTheLastValue) {
  // What assigning each entry into a dense matrix in file order gives:
  // the last write wins, a last write of 0 leaves no entry, and a second
  // F line for a node adds to its row.
  std::istringstream in(std::string(kHeader) +
                        "F 1 2:2 0:1 2:0 1:7\nF 0 1:1e-400 0:0.25\nF 0 1:-3\n");
  const Graph g = LoadGraph(in, "<test>");
  const CsrMatrix& x = g.feature_csr();
  EXPECT_TRUE(x.IsCanonicalNonzero());
  EXPECT_EQ(x.row_ptr(), (std::vector<std::int64_t>{0, 2, 4}));
  EXPECT_EQ(x.col_idx(), (std::vector<std::int32_t>{0, 1, 0, 1}));
  EXPECT_EQ(x.values(), (std::vector<double>{0.25, -3.0, 1.0, 7.0}));
}

// Replays fuzz/corpus/graph: each seed loads or is refused for its defect.
TEST(Io, GraphFuzzCorpusReplays) {
  const std::map<std::string, std::string> expected = {
      {"tiny.graph", ""},
      {"repeated_index.graph", ""},
      {"bad_magic", "bad magic"},
      {"truncated_header", "bad header"},
      {"huge_nodes", "header declares 2000000000 nodes"},
      {"node_out_of_range", "node '7' is not in [0, 2)"},
      {"feature_index_out_of_range", "feature index '4' is not in [0, 4)"},
      {"label_out_of_range", "label '5' is not in [0, 2)"},
      {"nan_value", "non-finite or malformed feature value 'nan'"},
      {"malformed_pair", "bad feature '1'"},
      {"self_loop", "self loop at 1"},
      {"duplicate_edge", "duplicate edge 1-0"},
      {"edge_count_mismatch", "edge count mismatch"},
      {"bad_record", "bad record type 'X'"},
  };
  std::size_t replayed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GCON_GRAPH_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "corpus seed without an expectation: "
                                  << name;
    std::ifstream in(entry.path());
    std::string error;
    try {
      const Graph g = LoadGraph(in, name);
      EXPECT_TRUE(g.feature_csr().IsCanonicalNonzero()) << name;
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    if (it->second.empty()) {
      EXPECT_EQ(error, "") << name;
    } else {
      EXPECT_NE(error.find(it->second), std::string::npos)
          << name << ": " << error;
    }
    ++replayed;
  }
  EXPECT_EQ(replayed, expected.size());
}

TEST(Splits, PlanetoidPerClassCounts) {
  Rng rng(1);
  Graph g(100, 4);
  for (int v = 0; v < 100; ++v) g.set_label(v, v % 4);
  const Split split = PlanetoidSplit(g, 5, 20, 40, &rng);
  EXPECT_EQ(split.train.size(), 20u);  // 5 per class x 4
  EXPECT_EQ(split.val.size(), 20u);
  EXPECT_EQ(split.test.size(), 40u);
  std::vector<int> per_class(4, 0);
  for (int v : split.train) ++per_class[static_cast<std::size_t>(g.label(v))];
  for (int c : per_class) EXPECT_EQ(c, 5);
}

TEST(Splits, PlanetoidClampsOversizedRequests) {
  Rng rng(2);
  Graph g(30, 3);
  for (int v = 0; v < 30; ++v) g.set_label(v, v % 3);
  const Split split = PlanetoidSplit(g, 5, 1000, 1000, &rng);
  EXPECT_EQ(split.train.size(), 15u);
  EXPECT_EQ(split.val.size(), 15u);  // remainder goes to val first
  EXPECT_TRUE(split.test.empty());
}

TEST(Splits, SplitsAreDisjoint) {
  Rng rng(3);
  Graph g(200, 5);
  for (int v = 0; v < 200; ++v) g.set_label(v, v % 5);
  const Split split = PlanetoidSplit(g, 10, 50, 80, &rng);
  std::vector<bool> seen(200, false);
  for (const auto* part : {&split.train, &split.val, &split.test}) {
    for (int v : *part) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "node " << v;
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

TEST(Splits, ProportionalSizes) {
  Rng rng(4);
  Graph g(100, 2);
  const Split split = ProportionalSplit(g, 0.6, 0.2, 0.2, &rng);
  EXPECT_EQ(split.train.size(), 60u);
  EXPECT_EQ(split.val.size(), 20u);
  EXPECT_EQ(split.test.size(), 20u);
}

TEST(Splits, DifferentSeedsDifferentSplits) {
  Graph g(100, 2);
  Rng rng_a(5), rng_b(6);
  const Split a = ProportionalSplit(g, 0.5, 0.2, 0.3, &rng_a);
  const Split b = ProportionalSplit(g, 0.5, 0.2, 0.3, &rng_b);
  EXPECT_NE(a.train, b.train);
}

}  // namespace
}  // namespace gcon
