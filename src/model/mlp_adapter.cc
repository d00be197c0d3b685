// "mlp": features-only classifier — never reads the edge set, so it is
// edge-DP at zero budget (the "no graph information" floor of Figure 1).
//
// Persistence: unlike the one-shot baselines, the fitted network itself is
// kept, so the adapter supports Save/Load ("gcon-mlp v1" = a header around
// the nn/mlp_io block) and can Predict on any graph with the same feature
// width — making the edge-free floor servable through the same
// InferenceSession path as the published GCON artifact. Recomputing
// Forward on the training features reproduces the training-time logits
// bitwise, which the registry round-trip test relies on.
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "baselines/mlp_baseline.h"
#include "common/check.h"
#include "common/timer.h"
#include "model/adapters.h"
#include "nn/mlp_io.h"

namespace gcon {
namespace {

class MlpModel : public GraphModel {
 public:
  explicit MlpModel(const ModelConfig& config) {
    options_.hidden = config.GetInt("hidden", options_.hidden);
    options_.epochs = config.GetInt("epochs", options_.epochs);
    options_.learning_rate =
        config.GetDouble("learning_rate", options_.learning_rate);
    options_.weight_decay =
        config.GetDouble("weight_decay", options_.weight_decay);
    options_.seed = config.GetSeed("seed", options_.seed);
    internal::ReadBudgetKeys(config);  // accepted, ignored: edge-free
  }

  std::string name() const override { return "mlp"; }

  std::string Describe() const override {
    std::ostringstream out;
    out << "mlp hidden=" << options_.hidden << " epochs=" << options_.epochs
        << " learning_rate=" << options_.learning_rate
        << " weight_decay=" << options_.weight_decay
        << " seed=" << options_.seed;
    return out.str();
  }

  bool UsesPrivacyBudget() const override { return false; }

  TrainResult Train(const Graph& graph, const Split& split) override {
    Timer timer;
    Matrix logits = TrainMlpAndPredict(graph, split, options_, &mlp_);
    // Edges never touched: (0, 0)-edge-DP.
    return MakeResult(graph, split, std::move(logits), timer.Seconds(), 0.0,
                      0.0);
  }

  Matrix Predict(const Graph& graph) const override {
    GCON_CHECK(mlp_ != nullptr) << "Predict called before Train/Load on 'mlp'";
    GCON_CHECK_EQ(graph.feature_dim(), mlp_->options().dims.front())
        << "graph feature width does not match the trained network";
    return mlp_->Forward(graph.feature_csr());
  }

  bool Save(const std::string& path) const override {
    GCON_CHECK(mlp_ != nullptr) << "Save called before Train on 'mlp'";
    std::ofstream out(path);
    if (!out.good()) {
      throw std::runtime_error("mlp model '" + path +
                               "': cannot open for writing");
    }
    out << "gcon-mlp v1\n";
    SaveMlp(*mlp_, &out);
    if (!out.good()) {
      throw std::runtime_error("mlp model '" + path + "': write failure");
    }
    return true;
  }

  bool Load(const std::string& path) override {
    std::ifstream in(path);
    if (!in.good()) {
      throw std::runtime_error("mlp model '" + path +
                               "': cannot open (missing file?)");
    }
    std::string line;
    if (!std::getline(in, line) || line != "gcon-mlp v1") {
      throw std::runtime_error("mlp model '" + path + "': bad magic '" +
                               line + "' (want 'gcon-mlp v1')");
    }
    try {
      mlp_ = std::make_unique<Mlp>(LoadMlp(&in));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("mlp model '" + path + "': " + e.what());
    }
    return true;
  }

 private:
  MlpBaselineOptions options_;
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace

namespace internal {

void RegisterMlpModel(ModelRegistry* registry) {
  registry->Register(
      "mlp",
      [](const ModelConfig& config) -> std::unique_ptr<GraphModel> {
        return std::make_unique<MlpModel>(config);
      },
      "features-only MLP; edge-DP for free (utility floor)");
}

}  // namespace internal
}  // namespace gcon
