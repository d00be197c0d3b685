// gcon_cli — train, evaluate, publish, and serve edge-DP GCN models from
// the shell.
//
// Subcommands (first positional argument):
//   train    --graph=in.graph --model=out.model --epsilon=1 [--delta=auto]
//            [--alpha=0.8] [--steps=2 | --steps=0,2,inf] [--expand]
//            [--d1=16] [--hidden=32] [--seed=1]
//            Trains GCON on a gcon-graph file (see graph/io.h) using a
//            planetoid split and writes the release artifact.
//   eval     --method=NAME [--set key=value]... [--dataset=cora_ml]
//            [--scale=0.2] [--runs=1] [--threads=1] [--epsilon=1]
//            [--seed=1] [--share-data]
//            Trains any method registered in the ModelRegistry on a
//            synthetic dataset and reports micro/macro-F1, the privacy
//            budget actually spent, and wall-clock time. --set overrides
//            map onto the method's options struct; unknown methods or keys
//            exit 2 with the registered alternatives. --share-data reuses
//            one dataset across all runs (repeated-measurement protocol) so
//            the propagation cache amortizes the precomputation; with
//            --runs > 1 the cache hit/miss counters are printed.
//   predict  --graph=in.graph --model=in.model [--labels]
//            Loads an artifact, runs Eq. (16) private inference on the
//            graph, and prints per-node argmax predictions (with micro-F1
//            against the stored labels when --labels is given).
//   retrain  --graph=in.graph --model=out.model [train flags]
//            [--port=7070] [--publish-as=default]
//            The train→publish→serve loop: trains exactly like `train`,
//            writes the artifact, then publishes its absolute path over
//            the live wire to the `serve` process on --port
//            ({"cmd": "publish"}) so the
//            server hot-swaps it in with zero dropped queries. A server
//            running with --budget-cap may refuse the release
//            (budget_exhausted): the old bits keep serving and retrain
//            exits 3 so operators can distinguish "cap spent" from a
//            usage error.
//   serve    --graph=in.graph --model=in.model [--model name=path]...
//            [--port=7070] [--max_batch=32]
//            [--max_queue=4096] [--io_timeout_ms=30000]
//            [--budget-ledger=path] [--budget-cap=0]
//            Loads each artifact once and serves node-prediction queries
//            over TCP (127.0.0.1) through the shared micro-batching
//            engine. Two wire codecs share the port, sniffed from each
//            connection's first byte: newline-delimited JSON (serve/
//            wire.h) and, when a connection opens with 0xC0, the
//            length-prefixed binary frame protocol (serve/frame.h) whose
//            f32 feature payloads decode with fixed-width loads instead
//            of a text parse — the fast path for inductive queries.
//            --model is repeatable: "name=path" serves the artifact under
//            that name (requests route via the wire "model" key; the
//            first-listed model is the default), a bare path is shorthand
//            for "default=path". Queries may carry an unseen node's raw
//            feature vector ("features") for inductive serving. Responses
//            are bitwise identical to `predict` on the same (augmented)
//            graph. --max_queue bounds each model's pending queue (0 =
//            unbounded): a full queue rejects with a coded "overloaded"
//            error line instead of growing without bound, and stalled
//            clients are disconnected after --io_timeout_ms. Runs until
//            SIGTERM/SIGINT, then stops reading every open connection at
//            once (idle clients are not waited for), answers every query
//            already accepted, and drains: the workers exit. The
//            "publish" wire verb hot-swaps a served artifact in place
//            without a restart.
//            --port=0 picks an ephemeral port (printed).
//            --budget-ledger names a persistent privacy-budget ledger
//            (dp/budget_ledger.h): cumulative per-model epsilon survives
//            restarts and crashes, and --budget-cap makes any publish (or
//            startup load) that would push a model's total past the cap
//            fail with a structured "budget_exhausted" rejection while
//            the old artifact keeps serving. The "budget" wire verb
//            reports the charged totals.
//   stats    --graph=in.graph
//            Prints dataset statistics (the Table II columns).
//   generate --dataset=cora_ml --scale=0.25 --out=out.graph [--seed=1]
//            Writes a synthetic dataset to a graph file.
//
// Exit codes: 0 success, 2 usage error, 3 publish refused over budget
// (retrain only; the trained artifact is on disk, the server unchanged).
#include <arpa/inet.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "core/model_io.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "model/adapters.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "serve/inference_session.h"
#include "serve/server.h"

namespace {

const std::map<std::string, std::string> kSpec = {
    {"graph", "path to a gcon-graph v1 file"},
    {"model", "path to a gcon-model v1 artifact; for serve, repeatable "
              "\"name=path\" entries host several models in one process"},
    {"method", "registered method name (eval); see the list below"},
    {"set", "key=value config override (eval); repeatable"},
    {"runs", "independent repeats (eval, default 1)"},
    {"threads", "worker threads for --runs (eval, default 1; 0 = all cores)"},
    {"share-data", "share one dataset across runs (eval; cache demo)"},
    {"epsilon", "privacy budget (train/eval)"},
    {"delta", "privacy delta; default 1/|directed edges|"},
    {"alpha", "APPR restart probability (default 0.8)"},
    {"steps", "comma-separated propagation steps; 'inf' allowed (default 2)"},
    {"expand", "expand the train set with pseudo-labels (n1 = n)"},
    {"d1", "encoder output dimension (default 16)"},
    {"hidden", "encoder hidden width (default 32)"},
    {"seed", "RNG seed (default 1)"},
    {"labels", "evaluate predictions against the graph's labels"},
    {"dataset", "synthetic dataset name (generate/eval)"},
    {"scale", "synthetic dataset scale factor (generate 1.0, eval 0.2)"},
    {"out", "output path (generate)"},
    {"port", "TCP port to serve on; 0 = ephemeral (serve, default 7070)"},
    {"max_batch", "queries coalesced per batch (serve, default 32)"},
    {"max_queue", "per-model pending-queue cap; full queues reject with "
                  "'overloaded'; 0 = unbounded (serve, default 4096)"},
    {"io_timeout_ms", "per-connection read/write timeout; stalled clients "
                      "are disconnected (serve, default 30000)"},
    {"trace-sample", "record a span timeline for 1-in-N queries; 0 disables "
                     "tracing (serve, default 64)"},
    {"slow-query-us", "log any traced query slower than this many us, spans "
                      "inline; 0 disables (serve, default 0)"},
    {"budget-ledger", "path of the persistent privacy-budget ledger; "
                      "cumulative per-model epsilon survives restarts "
                      "(serve; default in-memory)"},
    {"budget-cap", "refuse any publish pushing a model's cumulative epsilon "
                   "past this; 0 = unlimited (serve, default 0)"},
    {"publish-as", "served model name the retrained artifact publishes "
                   "over (retrain, default \"default\")"},
};

std::string MethodListing() {
  std::ostringstream out;
  out << "registered methods (--method):\n";
  for (const std::string& name : gcon::BuiltinModelRegistry().Names()) {
    out << "  " << name << " — " << gcon::BuiltinModelRegistry().Summary(name)
        << "\n";
  }
  return out.str();
}

gcon::Split MakeCliSplit(const gcon::Graph& graph, std::uint64_t seed) {
  gcon::Rng rng(seed);
  return gcon::PlanetoidSplit(
      graph, /*per_class=*/20,
      /*val_size=*/std::max(20, graph.num_nodes() / 10),
      /*test_size=*/std::max(40, graph.num_nodes() / 5), &rng);
}

int CmdTrain(const gcon::Flags& flags) {
  const std::string graph_path = flags.GetString("graph", "");
  const std::string model_path = flags.GetString("model", "");
  if (graph_path.empty() || model_path.empty()) {
    std::cerr << "train requires --graph and --model\n";
    return 2;
  }
  const std::string seed = flags.GetString("seed", "1");

  // The train subcommand is sugar for `eval --method=gcon` plus Save: build
  // the same ModelConfig the registry path uses (validating flag values up
  // front) and let the gcon adapter do the work.
  gcon::ModelConfig config;
  config.Set("epsilon", flags.GetString("epsilon", "1"));
  if (flags.Has("delta")) config.Set("delta", flags.GetString("delta", ""));
  config.Set("alpha", flags.GetString("alpha", "0.8"));
  config.Set("steps", flags.GetString("steps", "2"));
  config.Set("d1", flags.GetString("d1", "16"));
  config.Set("hidden", flags.GetString("hidden", "32"));
  config.Set("expand", flags.GetBool("expand", false) ? "true" : "false");
  config.Set("max_iterations", "500");
  config.Set("seed", seed);

  try {
    // Validates --steps/--epsilon/... before touching the graph file.
    std::unique_ptr<gcon::GraphModel> model =
        gcon::BuiltinModelRegistry().Create("gcon", config);
    const gcon::Graph graph = gcon::LoadGraph(graph_path);
    const gcon::Split split =
        MakeCliSplit(graph, static_cast<std::uint64_t>(std::stoull(seed)));
    const gcon::TrainResult result = model->Train(graph, split);
    model->Save(model_path);
    std::cout << "trained on " << graph.num_nodes()
              << " nodes at epsilon=" << result.epsilon_spent
              << " delta=" << result.delta_spent << "; validation micro-F1 "
              << result.val_micro_f1 << "\nwrote " << model_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "train: " << e.what() << "\n" << flags.Usage();
    return 2;
  }
  return 0;
}

int CmdEval(const gcon::Flags& flags) {
  const std::string method = flags.GetString("method", "");
  if (method.empty()) {
    std::cerr << "eval requires --method\n" << MethodListing();
    return 2;
  }
  try {
    gcon::ModelConfig config;
    if (flags.Has("epsilon")) {
      config.Set("epsilon", flags.GetString("epsilon", ""));
    }
    if (flags.Has("delta")) config.Set("delta", flags.GetString("delta", ""));
    for (const std::string& kv : flags.GetList("set")) {
      config.SetFromFlag(kv);
    }
    const gcon::DatasetSpec spec = gcon::Scaled(
        gcon::SpecByName(flags.GetString("dataset", "cora_ml")),
        flags.GetDouble("scale", 0.2));
    const int runs = flags.GetPositiveInt("runs", 1);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(flags.GetInt("seed", 1));
    gcon::RepeatOptions options;
    options.share_data = flags.GetBool("share-data", false);
    // Determinism holds for any thread count (each run derives its own Rng
    // from seed + r and owns its model); --threads only changes wall clock.
    options.threads = flags.GetInt("threads", 1);

    const gcon::MethodRunSummary summary =
        gcon::RunMethodRepeated(method, config, spec, runs, seed, options);
    const gcon::TrainResult& first = summary.runs.front();
    std::cout << first.description << "\n"
              << "dataset " << spec.name << " scale "
              << flags.GetDouble("scale", 0.2) << " (" << runs
              << (runs == 1 ? " run" : " runs") << ")\n"
              << "test micro-F1  " << summary.test_micro_f1.mean;
    if (runs > 1) std::cout << " ± " << summary.test_micro_f1.stddev;
    std::cout << "\ntest macro-F1  " << summary.test_macro_f1.mean;
    if (runs > 1) std::cout << " ± " << summary.test_macro_f1.stddev;
    std::cout << "\nval micro-F1   " << first.val_micro_f1 << "\n"
              << "epsilon spent  " << summary.epsilon_spent << " (delta "
              << summary.delta_spent << ")\n"
              << "train seconds  " << summary.train_seconds.mean << "\n";
    if (runs > 1) {
      const gcon::PropagationCacheDelta& cache = summary.cache;
      std::cout << "propagation cache: csr(transition/adjacency) " << cache.csr_hits
                << " hit / " << cache.csr_misses << " miss, propagate "
                << cache.propagation_hits << " hit / "
                << cache.propagation_misses << " miss, "
                << cache.hit_seconds_saved << "s saved ("
                << cache.miss_build_seconds << "s spent building)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "eval: " << e.what() << "\n";
    return 2;
  }
}

int CmdPredict(const gcon::Flags& flags) {
  const std::string graph_path = flags.GetString("graph", "");
  const std::string model_path = flags.GetString("model", "");
  if (graph_path.empty() || model_path.empty()) {
    std::cerr << "predict requires --graph and --model\n";
    return 2;
  }
  gcon::Graph graph;
  gcon::Matrix logits;
  try {
    graph = gcon::LoadGraph(graph_path);
    const gcon::GconArtifact artifact = gcon::LoadModel(model_path);
    logits = artifact.Infer(graph);
  } catch (const std::exception& e) {
    // A missing/corrupt graph or artifact is a usage error, not a crash.
    std::cerr << "predict: " << e.what() << "\n";
    return 2;
  }
  const std::vector<int> predictions = gcon::ArgmaxPredictions(logits);
  for (int v = 0; v < graph.num_nodes(); ++v) {
    std::cout << v << " " << predictions[static_cast<std::size_t>(v)] << "\n";
  }
  if (flags.GetBool("labels", false)) {
    std::vector<int> all;
    for (int v = 0; v < graph.num_nodes(); ++v) all.push_back(v);
    std::cerr << "micro-F1 vs stored labels: "
              << gcon::MicroF1(predictions, graph.labels(), all,
                               graph.num_classes())
              << "\n";
  }
  return 0;
}

// One --model occurrence: "name=path" or a bare path (name "default").
struct ServeModelFlag {
  std::string name;
  std::string path;
};

std::vector<ServeModelFlag> ParseServeModels(
    const std::vector<std::string>& entries) {
  std::vector<ServeModelFlag> models;
  for (const std::string& entry : entries) {
    // A '=' before any '/' separates name from path; a path like
    // "runs/eps=2/out.model" alone stays a bare (default-named) path. A
    // bare filename that itself contains '=' ("eps=2.model") is ambiguous
    // — write it as "./eps=2.model" or "default=eps=2.model" (the split
    // is at the FIRST '=').
    const std::size_t eq = entry.find('=');
    const std::size_t slash = entry.find('/');
    if (eq != std::string::npos && (slash == std::string::npos || eq < slash)) {
      models.push_back({entry.substr(0, eq), entry.substr(eq + 1)});
    } else {
      models.push_back({"default", entry});
    }
    if (models.back().path.empty()) {
      throw std::invalid_argument("--model entry '" + entry +
                                  "' names no artifact path");
    }
  }
  return models;
}

// SIGTERM/SIGINT flip this flag; the accept loop polls it every 200ms,
// half-closes every open connection (each answers what it accepted, then
// closes) and returns, after which CmdServe drains the server before
// exiting. An atomic<bool> store is
// async-signal-safe; anything fancier in a handler is not.
std::atomic<bool> g_serve_shutdown{false};

void HandleServeSignal(int /*signum*/) {
  g_serve_shutdown.store(true, std::memory_order_release);
}

// serve runs each batch on whichever connection thread awaits it, and
// glibc gives each of those threads its own malloc arena. Under glibc's
// dynamic mmap threshold the first large block freed (an artifact load, a
// wide inductive batch) raises the mmap and trim thresholds for good, so
// from then on every arena keeps the largest transient it has held, and
// resident memory depends on which thread happened to run the widest batch.
// Pinning the threshold at glibc's 128 KiB default keeps large blocks in
// mmap, returned to the kernel on free, and trims each arena's idle top,
// so the process's RSS follows its live data.
void PinMallocThresholds() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

int CmdServe(const gcon::Flags& flags) {
  const std::string graph_path = flags.GetString("graph", "");
  const std::vector<std::string> model_flags = flags.GetList("model");
  if (graph_path.empty() || model_flags.empty()) {
    std::cerr << "serve requires --graph and at least one --model\n";
    return 2;
  }
  // --threads is eval's; the threads awaiting answers run serve's batches.
  if (flags.Has("threads")) {
    std::cerr << "Unknown flag --threads for serve\n" << flags.Usage();
    return 2;
  }
  // Strict knob validation up front: zero/negative batch sizes or timeouts
  // are invocation bugs, not modes (exit 2, flag named).
  gcon::ServeOptions options;
  options.max_batch = flags.GetPositiveInt("max_batch", 32);
  options.max_queue = flags.GetInt("max_queue", 4096);
  options.io_timeout_ms = flags.GetPositiveInt("io_timeout_ms", 30000);
  if (options.max_queue < 0) {
    std::cerr << "serve: --max_queue must be >= 0 (0 = unbounded)\n";
    return 2;
  }
  options.budget_ledger = flags.GetString("budget-ledger", "");
  options.budget_cap = flags.GetDouble("budget-cap", 0.0);
  if (options.budget_cap < 0) {
    std::cerr << "serve: --budget-cap must be >= 0 (0 = unlimited)\n";
    return 2;
  }
  const int port = flags.GetInt("port", 7070);
  if (port < 0 || port > 65535) {
    std::cerr << "serve: --port must be in [0, 65535]\n";
    return 2;
  }
  const int trace_sample = flags.GetInt("trace-sample", 64);
  if (trace_sample < 0) {
    std::cerr << "serve: --trace-sample must be >= 0 (0 = off)\n";
    return 2;
  }
  const int slow_query_us = flags.GetInt("slow-query-us", 0);
  if (slow_query_us < 0) {
    std::cerr << "serve: --slow-query-us must be >= 0 (0 = off)\n";
    return 2;
  }
  gcon::obs::TraceRecorder::Global().Configure(
      static_cast<std::uint32_t>(trace_sample), slow_query_us);

  PinMallocThresholds();
  try {
    // Every model serves the same population: one graph in memory, shared
    // read-only across the sessions (each still runs its own encoder
    // forward — that depends on the artifact).
    const auto graph =
        std::make_shared<const gcon::Graph>(gcon::LoadGraph(graph_path));
    std::vector<gcon::ModelRouter::NamedModel> models;
    for (const ServeModelFlag& model : ParseServeModels(model_flags)) {
      models.push_back({model.name, gcon::InferenceSession::FromFile(
                                        model.path, graph)});
    }
    gcon::InferenceServer server(std::move(models), options);
    std::signal(SIGTERM, HandleServeSignal);
    std::signal(SIGINT, HandleServeSignal);
    const int rc = gcon::RunTcpServer(&server, port, &g_serve_shutdown);
    // Graceful drain: every query accepted before the signal resolves
    // before the process exits — zero dropped accepted queries.
    server.Drain();
    std::cout << "serve: drained cleanly (" << server.queries_served()
              << " queries served)" << std::endl;
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "serve: " << e.what() << "\n";
    return 2;
  }
}

/// Minimal newline-JSON wire round-trip: connects to the serve process on
/// 127.0.0.1:`port`, sends one line, and reads one response line. Returns
/// false (with *error set) when the server is unreachable or hangs up
/// before answering.
bool WireRoundTrip(int port, const std::string& line, std::string* response,
                   std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "cannot reach 127.0.0.1:" + std::to_string(port) + " (" +
             std::strerror(errno) + "); is `gcon_cli serve` running?";
    ::close(fd);
    return false;
  }
  const std::string data = line + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  response->clear();
  char chunk[4096];
  for (;;) {
    const std::size_t eol = response->find('\n');
    if (eol != std::string::npos) {
      response->resize(eol);
      ::close(fd);
      return true;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      *error = "server closed the connection before answering";
      ::close(fd);
      return false;
    }
    response->append(chunk, static_cast<std::size_t>(n));
  }
}

int CmdRetrain(const gcon::Flags& flags) {
  // The train→publish→serve retrain loop: exactly CmdTrain's training and
  // artifact write, then a {"cmd": "publish"} over the live wire so the
  // serving process hot-swaps the new release in without dropping queries.
  const std::string model_path = flags.GetString("model", "");
  const int port = flags.GetInt("port", 7070);
  if (port <= 0 || port > 65535) {
    std::cerr << "retrain: --port must be in [1, 65535] (the live serve "
                 "process)\n";
    return 2;
  }
  const std::string target = flags.GetString("publish-as", "default");
  const int trained = CmdTrain(flags);  // prints its own diagnostics
  if (trained != 0) return trained;

  // The server opens the path from its own working directory, so send the
  // one this process wrote.
  const std::string published =
      std::filesystem::absolute(model_path).string();
  const std::string request = "{\"cmd\": \"publish\", \"model\": \"" +
                              gcon::EscapeJson(target) + "\", \"path\": \"" +
                              gcon::EscapeJson(published) + "\"}";
  std::string response;
  std::string error;
  if (!WireRoundTrip(port, request, &response, &error)) {
    std::cerr << "retrain: " << error << "\n";
    return 2;
  }
  std::cout << response << "\n";
  if (response.rfind("{\"published\": ", 0) == 0) return 0;
  if (response.find("\"code\": \"budget_exhausted\"") != std::string::npos) {
    // The server's ledger refused the release: the cap is spent, the old
    // bits keep serving. Distinct exit code so operators and scripts can
    // tell "budget exhausted" from a usage error.
    std::cerr << "retrain: publish refused over budget; the server still "
                 "serves the previous artifact\n";
    return 3;
  }
  std::cerr << "retrain: publish failed\n";
  return 2;
}

int CmdStats(const gcon::Flags& flags) {
  const std::string graph_path = flags.GetString("graph", "");
  if (graph_path.empty()) {
    std::cerr << "stats requires --graph\n";
    return 2;
  }
  gcon::Graph graph;
  try {
    graph = gcon::LoadGraph(graph_path);
  } catch (const std::exception& e) {
    std::cerr << "stats: " << e.what() << "\n";
    return 2;
  }
  std::cout << "nodes " << graph.num_nodes() << "\n"
            << "edges_directed " << 2 * graph.num_edges() << "\n"
            << "features " << graph.feature_dim() << "\n"
            << "classes " << graph.num_classes() << "\n"
            << "homophily " << gcon::HomophilyRatio(graph) << "\n"
            << "mean_degree " << gcon::MeanDegree(graph) << "\n"
            << "max_degree " << gcon::MaxDegree(graph) << "\n"
            << "isolated " << gcon::IsolatedCount(graph) << "\n";
  return 0;
}

int CmdGenerate(const gcon::Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "generate requires --out\n";
    return 2;
  }
  const gcon::DatasetSpec spec =
      gcon::Scaled(gcon::SpecByName(flags.GetString("dataset", "cora_ml")),
                   flags.GetDouble("scale", 1.0));
  gcon::Rng rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  const gcon::Graph graph = gcon::GenerateDataset(spec, &rng);
  gcon::SaveGraph(graph, out);
  std::cout << "wrote " << spec.name << " (" << graph.num_nodes()
            << " nodes, " << graph.num_edges() << " edges) to " << out
            << "\n";
  return 0;
}

}  // namespace

// Boolean switches must not swallow the next token: `gcon_cli eval
// --share-data` used to eat "eval" when the switch came first.
const std::set<std::string> kSwitches = {"share-data", "expand", "labels"};

int main(int argc, char** argv) {
  const gcon::Flags flags(argc, argv, kSpec, kSwitches);
  if (flags.positional().empty()) {
    std::cerr << "usage: gcon_cli "
                 "<train|eval|predict|retrain|serve|stats|generate> "
                 "[flags]\n"
              << flags.Usage() << MethodListing();
    return 2;
  }
  const std::string& command = flags.positional().front();
  if (command == "train") return CmdTrain(flags);
  if (command == "eval") return CmdEval(flags);
  if (command == "predict") return CmdPredict(flags);
  if (command == "retrain") return CmdRetrain(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "generate") return CmdGenerate(flags);
  std::cerr << "unknown command: " << command << "\n";
  return 2;
}
