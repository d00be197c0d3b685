// API-contract robustness: invalid inputs must fail loudly (GCON_CHECK
// aborts), not silently corrupt numeric state. Uses gtest death tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/incomplete_gamma.h"
#include "core/theorem1.h"
#include "dp/graph_perturbation.h"
#include "dp/mechanisms.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "linalg/matrix.h"
#include "linalg/ops.h"
#include "rng/rng.h"
#include "sparse/csr_matrix.h"

namespace gcon {
namespace {

using RobustnessDeathTest = ::testing::Test;

TEST(RobustnessDeathTest, MatrixAtOutOfBounds) {
  Matrix m(2, 3);
  EXPECT_DEATH(m.At(2, 0), "CHECK FAILED");
  EXPECT_DEATH(m.At(0, 3), "CHECK FAILED");
}

TEST(RobustnessDeathTest, MatMulShapeMismatch) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_DEATH(MatMul(a, b), "inner dims mismatch");
}

TEST(RobustnessDeathTest, ConcatRowMismatch) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_DEATH(ConcatCols(a, b), "row mismatch");
}

TEST(RobustnessDeathTest, GatherRowsOutOfRange) {
  Matrix a(2, 2);
  EXPECT_DEATH(GatherRows(a, {5}), "CHECK FAILED");
  EXPECT_DEATH(GatherRows(a, {-1}), "CHECK FAILED");
}

TEST(RobustnessDeathTest, CooBuilderRejectsOutOfRange) {
  CooBuilder builder(2, 2);
  EXPECT_DEATH(builder.Add(2, 0, 1.0), "CHECK FAILED");
}

TEST(RobustnessDeathTest, GraphRejectsBadLabels) {
  Graph g(3, 2);
  EXPECT_DEATH(g.set_label(0, 2), "CHECK FAILED");
  EXPECT_DEATH(g.set_label(0, -1), "CHECK FAILED");
  EXPECT_DEATH(g.set_label(5, 0), "CHECK FAILED");
}

TEST(RobustnessDeathTest, UnknownDatasetAborts) {
  EXPECT_DEATH(SpecByName("not_a_dataset"), "unknown dataset");
}

TEST(RobustnessDeathTest, EdgeRandRefusesExplosiveOutput) {
  // At eps=0.1 on a 2000-node graph EdgeRand would inject ~0.95M edges;
  // with a 10k cap the guard must fire.
  DatasetSpec spec = TinySpec();
  spec.num_nodes = 2000;
  spec.num_undirected_edges = 4000;
  Rng gen(1);
  const Graph graph = GenerateDataset(spec, &gen);
  Rng rng(2);
  EXPECT_DEATH(EdgeRand(graph, 0.1, &rng, /*max_edges=*/10000),
               "use LapGraph");
}

TEST(RobustnessDeathTest, MechanismsRejectBadBudgets) {
  Matrix m(2, 2);
  Rng rng(3);
  EXPECT_DEATH(LaplaceMechanismInPlace(&m, 1.0, 0.0, &rng), "CHECK FAILED");
  EXPECT_DEATH(GaussianSigma(1.0, -1.0, 1e-5), "CHECK FAILED");
  EXPECT_DEATH(ZcdpRhoFromEpsilonDelta(1.0, 2.0), "CHECK FAILED");
}

TEST(RobustnessDeathTest, Theorem1RejectsInvalidInputs) {
  const ConvexLoss loss = ConvexLoss::MultiLabelSoftMargin(3);
  PrivacyInputs in;
  in.epsilon = 1.0;
  in.delta = 1e-5;
  in.omega = 0.9;
  in.lambda = 0.2;
  in.n1 = 100;
  in.num_classes = 3;
  in.dim = 8;
  in.psi_z = 1.0;

  PrivacyInputs bad = in;
  bad.epsilon = 0.0;
  EXPECT_DEATH(ComputePrivacyParams(bad, loss), "CHECK FAILED");
  bad = in;
  bad.omega = 1.0;
  EXPECT_DEATH(ComputePrivacyParams(bad, loss), "CHECK FAILED");
  bad = in;
  bad.n1 = 0;
  EXPECT_DEATH(ComputePrivacyParams(bad, loss), "CHECK FAILED");
  bad = in;
  bad.num_classes = 5;  // mismatched with the loss's class count
  EXPECT_DEATH(ComputePrivacyParams(bad, loss), "CHECK FAILED");
}

TEST(RobustnessDeathTest, GammaQuantileRejectsProbOne) {
  EXPECT_DEATH(GammaQuantile(4.0, 1.0), "CHECK FAILED");
}

TEST(RobustnessDeathTest, RngRejectsDegenerateParameters) {
  Rng rng(5);
  EXPECT_DEATH(rng.UniformInt(0), "CHECK FAILED");
  EXPECT_DEATH(rng.Exponential(0.0), "CHECK FAILED");
  EXPECT_DEATH(rng.Gamma(-1.0, 1.0), "CHECK FAILED");
  EXPECT_DEATH(rng.Erlang(0, 1.0), "CHECK FAILED");
  EXPECT_DEATH(rng.SampleWithoutReplacement(3, 5), "CHECK FAILED");
}

// Non-death robustness: a bad graph file throws a runtime_error naming the
// path and the defect (tests/graph_test.cc covers the line-level cases).
std::string LoadGraphError(const std::string& path) {
  try {
    LoadGraph(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Robustness, LoadGraphBadMagic) {
  const std::string path = "/tmp/gcon_robustness_bad_magic.txt";
  {
    std::ofstream out(path);
    out << "something else entirely\n";
  }
  const std::string error = LoadGraphError(path);
  std::remove(path.c_str());
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  EXPECT_NE(error.find(path), std::string::npos) << error;
}

TEST(Robustness, LoadGraphMissingFile) {
  const std::string error = LoadGraphError("/tmp/gcon_no_such_file_xyz.graph");
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// Partially written graph files are detected.
TEST(Robustness, LoadGraphDetectsEdgeCountMismatch) {
  const std::string path = "/tmp/gcon_robustness_truncated.txt";
  {
    std::ofstream out(path);
    out << "gcon-graph v1\n";
    out << "nodes 2 classes 2 features 1 edges 3\n";  // claims 3 edges
    out << "L 0 0\nL 1 1\n";
    out << "F 0 0:1\nF 1 0:1\n";
    out << "E 0 1\n";  // provides only 1
  }
  const std::string error = LoadGraphError(path);
  std::remove(path.c_str());
  EXPECT_NE(error.find("edge count mismatch"), std::string::npos) << error;
}

}  // namespace
}  // namespace gcon
