// perfbench harness: runs one workload of GCON's train -> publish -> serve
// benchmark and prints its result document. run.py builds and drives it;
// README.md lists the workloads and every metric.
//
// Untraced (--trace 0) it measures what users run, from outside: every
// release is `gcon_cli train` in a fresh process (so the propagation cache
// starts cold, as it does for a user), and serving is `gcon_cli serve` with
// its shipped defaults, driven over real TCP by the open-loop generator of
// loadgen.h. Traced (--trace 1) it measures the layers: the release re-run
// stage by stage in-process (stages.h), the workload's requests replayed
// through the codec and session functions, and a --trace-sample 1 server
// scraped for its stats, metrics and span timelines.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.h"
#include "dp/budget_ledger.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "loadgen.h"
#include "propagation/cache.h"
#include "rng/rng.h"
#include "serve/frame.h"
#include "serve/inference_session.h"
#include "serve/wire.h"
#include "stages.h"
#include "util.h"

namespace perfbench {
namespace {

enum class Kind { kTrain, kNode, kInductive };

// Frozen traffic settings. The nominal rate sits at a tenth (node) to a
// fifth (inductive) of the throughput knee, so p50 measures service rather
// than queueing. The SLO is
// the p99 limit of the traced pass's ladder, whose rung 0 sits below the
// nominal rate. The shares split --seconds between back-to-back releases
// and the nominal-rate phase.
struct Workload {
  const char* name;
  Kind kind;
  double slo_us;
  double nominal_qps;
  double ladder_base_qps;
  double release_share;
  double nominal_share;
};

constexpr Workload kWorkloads[] = {
    {"train_cora_ml", Kind::kTrain, 10000.0, 20000.0, 16000.0, 0.6, 0.3},
    {"serve_node", Kind::kNode, 10000.0, 20000.0, 16000.0, 0.4, 0.5},
    {"serve_inductive", Kind::kInductive, 50000.0, 4000.0, 3000.0, 0.4, 0.5},
};

// Every workload makes at least this many releases, back to back.
constexpr std::size_t kMinReleases = 5;
constexpr int kIdlePublishes = 3;
// setup_s is the median of this many server starts, or of this many
// dataset generations (a tenth of a second each) for train_cora_ml.
constexpr int kSetupRepeats = 5;
constexpr int kGenerateRepeats = 15;
// The traced pass runs the nominal schedule twice (traced, untraced server)
// and walks the ladder once.
constexpr double kTracedPhaseShare = 0.25;
constexpr double kLadderShare = 0.3;
// serve_inductive publishes this many times in its untraced nominal phase;
// the traced phases, shorter, keep the same interval.
constexpr int kPublishesPerPhase = 15;
constexpr double kTraceScrapeS = 0.1;
// Enough unseen nodes that the pool's mix of degrees, and so the work per
// inductive query, barely changes with --seed.
constexpr int kInductivePool = 512;
// Nominal-rate percentiles are medians over consecutive windows of this
// many samples each (at least 5 windows), so host stalls move the windows
// they hit, not the reported figure.
constexpr std::size_t kWindowSamples = 2000;
// A window is scored only if its late p99 is at most this share of its
// latency p50, or at most the floor.
constexpr double kMaxLateShare = 0.25;
constexpr double kLateFloorUs = 50.0;

const char kMetricsLine[] = "{\"cmd\": \"metrics\"}";
const char kStatsLine[] = "{\"cmd\": \"stats\"}";

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string cli;
  std::string work;
  bool tiny = false;
};

// State of one run.
struct Run {
  Options opt;
  const Workload* w = nullptr;
  gcon::DatasetSpec spec;
  std::string graph_path;
  std::shared_ptr<const gcon::Graph> graph;
  Result result;
  std::string sha = "unknown";
  std::string compiler = "unknown";
  std::string simd = "unknown";
  std::size_t nominal_samples = 0;
  double late_p50_us = 0.0;
  double late_p99_us = 0.0;
  int windows = 0;
  int windows_behind = 0;
  int ladder_rungs = 0;
  std::uint64_t ladder_shed = 0;
  int launches = 0;

  std::string Path(const std::string& name) const {
    return opt.work + "/" + name;
  }
  // The graph and the release are fixed, so train_s times the same work on
  // every run and val_micro_f1 moves only when the code changes utility;
  // --seed drives everything else (arrivals, query keys, unseen nodes).
  static constexpr std::uint64_t kGraphSeed = 1;
  static constexpr std::uint64_t kTrainSeed = 1001;
  std::uint64_t PhaseSeed(std::uint64_t salt) const {
    return opt.seed * 1000003 + salt;
  }

  // "serving on 127.0.0.1:P (..., sha=S compiler=C simd=T)"
  void NoteBanner(const std::string& line) {
    auto field = [&line](const std::string& key, const std::string& stop) {
      const std::size_t at = line.find(key);
      if (at == std::string::npos) return std::string("unknown");
      const std::size_t begin = at + key.size();
      const std::size_t end = line.find(stop, begin);
      return line.substr(begin, end == std::string::npos ? end : end - begin);
    };
    sha = field("sha=", " compiler=");
    compiler = field("compiler=", " simd=");
    simd = field("simd=", ")");
  }
};

int Connections() {
  // Plus the admin connection: never more connections than cores.
  return ::sysconf(_SC_NPROCESSORS_ONLN) >= 3 ? 2 : 1;
}

double GenerateGraphFile(const Run& run) {
  const double start = Now();
  gcon::Rng rng(Run::kGraphSeed);
  gcon::SaveGraph(gcon::GenerateDataset(run.spec, &rng), run.graph_path);
  return Now() - start;
}

bool SameBits(const gcon::Matrix& a, const gcon::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct Release {
  std::string path;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  double val_f1 = 0.0;
};

// One `gcon_cli train` in a fresh process, exec to exit, as a user pays it.
Release RunRelease(Run* run, const std::string& name, std::uint64_t seed) {
  Release release;
  release.path = run->Path(name);
  const std::vector<std::string> argv = {
      run->opt.cli,          "train",
      "--graph=" + run->graph_path, "--model=" + release.path,
      "--epsilon=1",         "--seed=" + std::to_string(seed)};
  const double start = Now();
  const ExitInfo exit =
      Wait(Spawn(argv, release.path + ".out", release.path + ".err"));
  release.wall_s = Now() - start;
  release.rss_mb = exit.max_rss_mb;
  const std::string out = ReadFile(release.path + ".out");
  const std::string key = "validation micro-F1 ";
  const std::size_t at = out.find(key);
  const bool ok = exit.ok() && at != std::string::npos;
  if (ok) release.val_f1 = std::strtod(out.c_str() + at + key.size(), nullptr);
  run->result.Check(ok, "gcon_cli train " + name + " exits cleanly");
  return release;
}

// A `gcon_cli serve` child on an ephemeral port with its shipped defaults
// plus `extra`. Construction returns once the first query is answered.
class Server {
 public:
  Server(Run* run, const std::string& model,
         const std::vector<std::string>& extra) {
    const std::string log =
        run->Path("serve" + std::to_string(run->launches++) + ".err");
    std::vector<std::string> argv = {run->opt.cli, "serve",
                                     "--graph=" + run->graph_path,
                                     "--model=" + model, "--port=0"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    const double start = Now();
    pid_ = Spawn(argv, "", log);
    try {
      AwaitFirstAnswer(run, log, start);
    } catch (...) {
      Shutdown();
      throw;
    }
  }
  ~Server() { Shutdown(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }
  double startup_s() const { return startup_s_; }
  double peak_rss_mb() const { return VmHwmMb(pid_); }

  // SIGTERM (the documented drain), then reap. True on a clean exit.
  bool Shutdown() {
    if (pid_ <= 0) return false;
    const ExitInfo info = Stop(pid_);
    pid_ = -1;
    return info.ok();
  }

 private:
  void AwaitFirstAnswer(Run* run, const std::string& log, double start) {
    const std::string banner = "serving on 127.0.0.1:";
    std::string text;
    std::size_t at = std::string::npos;
    while ((at = text.find(banner)) == std::string::npos ||
           text.find('\n', at) == std::string::npos) {
      ExitInfo info;
      if (Exited(pid_, &info)) {
        pid_ = -1;
        throw std::runtime_error("gcon_cli serve exited at startup: " + text);
      }
      if (Now() - start > 60.0) {
        throw std::runtime_error("gcon_cli serve did not start in 60 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      text = ReadFile(log);
    }
    port_ = std::atoi(text.c_str() + at + banner.size());
    run->NoteBanner(text.substr(at, text.find('\n', at) - at));
    gcon::ServeRequest probe;
    probe.node = 0;
    const int fd = ConnectBinary(port_);
    std::uint8_t type = 0;
    std::string payload;
    const bool ok =
        fd >= 0 && SendAll(fd, gcon::EncodeRequestFrame(probe)) &&
        ReadFrame(fd, &type, &payload) &&
        type == static_cast<std::uint8_t>(gcon::FrameType::kResponse);
    startup_s_ = Now() - start;
    if (fd >= 0) ::close(fd);
    run->result.Check(ok, "gcon_cli serve answers its first query");
  }

  pid_t pid_ = -1;
  int port_ = 0;
  double startup_s_ = 0.0;
};

// A publish round trip on an idle server, in seconds.
double Publish(Run* run, LoadGen* gen, const std::string& path) {
  std::string reply;
  const double start = Now();
  const bool ok = gen->Admin(PublishLine(path), false, &reply) &&
                  reply.rfind("{\"published\"", 0) == 0;
  const double seconds = Now() - start;
  run->result.Check(ok, "publish " + path);
  return seconds;
}

// Node-id queries: one per node of the serving graph, answered by the
// offline Infer rows of each artifact.
QueryPool NodePool(const Run& run,
                   const std::vector<gcon::GconArtifact>& artifacts) {
  QueryPool pool;
  for (int v = 0; v < run.graph->num_nodes(); ++v) {
    gcon::ServeRequest request;
    request.node = v;
    pool.frames.push_back(gcon::EncodeRequestFrame(request));
    pool.nodes.push_back(v);
    pool.requests.push_back(std::move(request));
  }
  for (const gcon::GconArtifact& artifact : artifacts) {
    pool.expected.push_back(artifact.Infer(*run.graph));
  }
  return pool;
}

// The graph a feature-carrying query implies: the query node appended at
// index n with its features and its in-range edges (the serving contract).
gcon::Graph AugmentGraph(const gcon::Graph& graph,
                         const gcon::ServeRequest& query) {
  const int n = graph.num_nodes();
  const std::size_t dim = static_cast<std::size_t>(graph.feature_dim());
  gcon::Graph augmented(n + 1, graph.num_classes());
  gcon::Matrix x(static_cast<std::size_t>(n) + 1, dim);
  std::copy(graph.features().data(), graph.features().data() + n * dim,
            x.data());
  std::copy(query.features.begin(), query.features.end(),
            x.RowPtr(static_cast<std::size_t>(n)));
  for (int v = 0; v < n; ++v) augmented.set_label(v, graph.label(v));
  augmented.set_features(std::move(x));
  for (const auto& [u, v] : graph.EdgeList()) augmented.AddEdge(u, v);
  for (int u : query.edges) {
    if (u >= 0 && u < n) augmented.AddEdge(n, u);
  }
  return augmented;
}

// Feature-carrying queries: unseen nodes drawn from a second graph of the
// same spec, features rounded to the binary transport's f32, edges into the
// serving population. Expected logits come from an in-process session,
// whose answers are checked against offline Infer on the augmented graph
// for a seeded sample.
QueryPool InductivePool(Run* run,
                        const std::vector<gcon::GconArtifact>& artifacts) {
  const gcon::Graph& graph = *run->graph;
  gcon::Rng rng(run->PhaseSeed(77));
  const gcon::Graph donors = gcon::GenerateDataset(run->spec, &rng);
  QueryPool pool;
  for (int k = 0; k < kInductivePool; ++k) {
    const int v = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(donors.num_nodes())));
    gcon::ServeRequest request;
    request.has_features = true;
    const double* row = donors.features().RowPtr(static_cast<std::size_t>(v));
    for (int j = 0; j < donors.feature_dim(); ++j) {
      request.features.push_back(static_cast<float>(row[j]));
    }
    request.has_edges = true;
    for (int u : donors.Neighbors(v)) {
      if (u < graph.num_nodes()) request.edges.push_back(u);
    }
    pool.frames.push_back(gcon::EncodeRequestFrame(request));
    pool.nodes.push_back(-1);
    pool.requests.push_back(std::move(request));
  }
  std::vector<const gcon::ServeRequest*> batch;
  for (const gcon::ServeRequest& request : pool.requests) {
    batch.push_back(&request);
  }
  const std::size_t n = static_cast<std::size_t>(graph.num_nodes());
  for (const gcon::GconArtifact& artifact : artifacts) {
    const gcon::InferenceSession session(artifact, run->graph);
    pool.expected.push_back(session.QueryBatch(batch));
    for (int s = 0; s < 2; ++s) {
      const std::size_t k = rng.UniformInt(pool.requests.size());
      const gcon::Matrix offline =
          artifact.Infer(AugmentGraph(graph, pool.requests[k]));
      run->result.Check(
          std::memcmp(offline.RowPtr(n), pool.expected.back().RowPtr(k),
                      offline.cols() * sizeof(double)) == 0,
          "inductive answer equals offline Infer on the augmented graph");
    }
  }
  return pool;
}

QueryPool MakePool(Run* run, const std::vector<gcon::GconArtifact>& artifacts) {
  return run->w->kind == Kind::kInductive ? InductivePool(run, artifacts)
                                          : NodePool(*run, artifacts);
}

void Tally(Run* run, const PhaseResult& r, const std::string& what) {
  run->result.Count(r.attempted(), r.failed(), what);
}

// A latency percentile at the nominal rate, taken per window.
struct Scored {
  double value = 0.0;  ///< median over the on-schedule windows
  int windows = 0;
  int behind = 0;  ///< windows in which the generator fell behind
  double worst_late_p99_us = 0.0;
};

// The q-quantile of each window of consecutive answers, median over the
// windows in which the generator kept its schedule: its late p99 at most
// kMaxLateShare of the window's latency p50 (or kLateFloorUs, the loop's
// own jitter, when that is larger). Later sends than that could move the
// window's figure by as much, so such a window is not scored.
Scored ScoreLatency(const PhaseResult& r, double q) {
  Scored s;
  const std::size_t n = r.latency_us.size();
  s.windows = static_cast<int>(std::max<std::size_t>(5, n / kWindowSamples));
  const std::size_t size = n / static_cast<std::size_t>(s.windows);
  std::vector<double> per_window;
  for (int w = 0; w < s.windows && size > 0; ++w) {
    const auto begin = static_cast<std::ptrdiff_t>(w * size);
    const auto end = begin + static_cast<std::ptrdiff_t>(size);
    const std::vector<double> latency(r.latency_us.begin() + begin,
                                      r.latency_us.begin() + end);
    const double late_p99 = Quantile(
        std::vector<double>(r.late_us.begin() + begin, r.late_us.begin() + end),
        0.99);
    s.worst_late_p99_us = std::max(s.worst_late_p99_us, late_p99);
    if (late_p99 >
        std::max(kLateFloorUs, kMaxLateShare * Quantile(latency, 0.5))) {
      ++s.behind;
      continue;
    }
    per_window.push_back(Quantile(latency, q));
  }
  s.value = Median(per_window);
  return s;
}

PhaseSpec NominalSpec(const Run& run, double duration_s, std::uint64_t salt) {
  PhaseSpec spec;
  spec.rate_qps = run.w->nominal_qps;
  spec.duration_s = duration_s;
  spec.seed = run.PhaseSeed(salt);
  return spec;
}

double PublishInterval(const Run& run) {
  return run.w->nominal_share * run.opt.seconds / kPublishesPerPhase;
}

void WarmUp(Run* run, LoadGen* gen, const QueryPool& pool) {
  Tally(run, gen->Run(NominalSpec(*run, 0.5, 1), pool), "warm-up queries");
}

// The nominal phase's q-quantile latency. The run is invalid, not scored,
// unless the generator kept its schedule in at least half of the windows.
double ScoreNominal(Run* run, const PhaseResult& r, double q) {
  const Scored s = ScoreLatency(r, q);
  run->late_p50_us = Quantile(r.late_us, 0.5);
  run->late_p99_us = Quantile(r.late_us, 0.99);
  run->windows = s.windows;
  run->windows_behind = s.behind;
  std::fprintf(stderr,
               "perfbench: nominal phase: %d of %d windows behind schedule "
               "(worst window late p99 %.1f us)\n",
               s.behind, s.windows, s.worst_late_p99_us);
  run->result.Check(2 * s.behind <= s.windows,
                    "generator kept its schedule in at least half of the "
                    "windows (" + std::to_string(s.behind) + " of " +
                        std::to_string(s.windows) + " behind)");
  return s.value;
}

// The in-process release must reproduce gcon_cli's bytes, and the reloaded
// artifact's Infer must reproduce its logits bit for bit.
StagedRelease CheckInProcess(Run* run, const Release& release) {
  const StagedRelease staged = RunStagedRelease(
      run->graph_path, run->Path("inprocess.model"), Run::kTrainSeed);
  run->result.Check(
      ReadFile(run->Path("inprocess.model")) == ReadFile(release.path),
      "in-process release is byte-identical to gcon_cli train's");
  const gcon::Matrix offline =
      gcon::LoadModel(release.path).Infer(*run->graph);
  run->result.Check(SameBits(offline, staged.logits),
                    "reloaded artifact's Infer equals the in-process logits");
  run->result.Check(std::fabs(staged.val_f1 - release.val_f1) < 1e-5,
                    "gcon_cli's validation micro-F1 equals the in-process one");
  run->result.Check(staged.cache_misses > 0, "the release ran cold");
  return staged;
}

void RunUntraced(Run* run) {
  const Workload& w = *run->w;
  const double seconds = run->opt.seconds;
  Result& result = run->result;

  std::vector<double> generate_s;
  for (int i = 0; i < (w.kind == Kind::kTrain ? kGenerateRepeats : 1); ++i) {
    generate_s.push_back(GenerateGraphFile(*run));
  }
  run->graph = std::make_shared<const gcon::Graph>(
      gcon::LoadGraph(run->graph_path));

  // Back-to-back releases, each `gcon_cli train` in a fresh process.
  // serve_inductive alternates two seeds so its publishes swap real bits;
  // the others repeat one seed, whose releases must be byte-identical.
  const double releases_start = Now();
  std::vector<Release> releases;
  while (releases.size() < kMinReleases ||
         (Now() - releases_start < w.release_share * seconds &&
          releases.size() < 40)) {
    const std::size_t k = releases.size();
    const std::uint64_t seed =
        Run::kTrainSeed + (w.kind == Kind::kInductive ? k % 2 : 0);
    releases.push_back(
        RunRelease(run, "release" + std::to_string(k) + ".model", seed));
    const std::size_t twin = w.kind == Kind::kInductive ? k % 2 : 0;
    if (k > twin) {
      result.Check(ReadFile(releases[k].path) == ReadFile(releases[twin].path),
                   "same-seed releases are byte-identical");
    }
  }
  if (w.kind == Kind::kTrain) CheckInProcess(run, releases[0]);
  std::vector<gcon::GconArtifact> artifacts = {
      gcon::LoadModel(releases[0].path)};
  if (w.kind == Kind::kInductive) {
    artifacts.push_back(gcon::LoadModel(releases[1].path));
  }
  const QueryPool pool = MakePool(run, artifacts);

  // Publishes of serve_inductive go through a temp-file ledger, no cap.
  std::vector<std::string> extra;
  if (w.kind == Kind::kInductive) {
    extra.push_back("--budget-ledger=" + run->Path("ledger.txt"));
  }
  std::unique_ptr<Server> server;
  std::vector<double> startup_s;
  for (int i = 0; i < (w.kind == Kind::kTrain ? 1 : kSetupRepeats); ++i) {
    if (server) result.Check(server->Shutdown(), "gcon_cli serve exits cleanly");
    server = std::make_unique<Server>(run, releases[0].path, extra);
    startup_s.push_back(server->startup_s());
  }

  PhaseResult nominal;
  {
    LoadGen gen(server->port(), Connections());
    if (w.kind != Kind::kInductive) {
      // Publishes to the idle server, each swapping in a release.
      for (int i = 0; i < kIdlePublishes; ++i) {
        Publish(run, &gen, releases[(i + 1) % releases.size()].path);
      }
    }
    WarmUp(run, &gen, pool);
    PhaseSpec spec = NominalSpec(*run, w.nominal_share * seconds, 2);
    if (w.kind == Kind::kInductive) {
      spec.admin.publish_interval_s = PublishInterval(*run);
      spec.admin.publish_paths = {releases[1].path, releases[0].path};
      spec.admin.publish_artifacts = {1, 0};
    }
    nominal = gen.Run(spec, pool);
    Tally(run, nominal, "nominal-rate queries");
  }
  std::vector<double> rss_mb;
  for (const Release& release : releases) rss_mb.push_back(release.rss_mb);
  const double server_rss_mb = server->peak_rss_mb();
  result.Check(server->Shutdown(), "gcon_cli serve drains and exits cleanly");

  std::vector<double> train_s;
  for (const Release& release : releases) {
    train_s.push_back(release.wall_s);
    if (w.kind != Kind::kInductive) {
      result.Check(release.val_f1 == releases[0].val_f1,
                   "same-seed releases report the same validation micro-F1");
    }
  }
  run->nominal_samples = nominal.latency_us.size();
  result.Add("train_s", Median(train_s), "s");
  result.Add("val_micro_f1", releases[0].val_f1, "ratio");
  result.Add("setup_s",
             w.kind == Kind::kTrain ? Median(generate_s) : Median(startup_s),
             "s");
  result.Add("peak_rss_mb",
             w.kind == Kind::kTrain ? Median(rss_mb) : server_rss_mb, "MiB");
  result.Add("p50_us", ScoreNominal(run, nominal, 0.5), "us");
}

// --- traced pass -------------------------------------------------------

struct ServeSample {
  PhaseResult phase;
  LadderResult ladder;  ///< untraced server only
  std::string stats;
  std::string metrics_before;
  std::string metrics_after;
};

// One server, one warm-up, then the nominal schedule with `admin` alongside,
// stats and metrics scraped around it; the untraced server then walks the
// ladder.
ServeSample MeasureServe(Run* run, const std::string& model,
                         const QueryPool& pool, AdminPlan admin, bool traced) {
  std::vector<std::string> extra;
  if (run->w->kind == Kind::kInductive) {
    extra.push_back("--budget-ledger=" +
                    run->Path(traced ? "ledger-traced.txt" : "ledger.txt"));
  }
  if (traced) {
    extra.push_back("--trace-sample=1");
    admin.trace_interval_s = kTraceScrapeS;
  }
  Server server(run, model, extra);
  ServeSample out;
  {
    LoadGen gen(server.port(), Connections());
    WarmUp(run, &gen, pool);
    run->result.Check(gen.Admin(kMetricsLine, true, &out.metrics_before),
                      "metrics scrape");
    PhaseSpec spec =
        NominalSpec(*run, kTracedPhaseShare * run->opt.seconds, 2);
    spec.admin = admin;
    out.phase = gen.Run(spec, pool);
    Tally(run, out.phase, traced ? "traced-server queries" : "queries");
    if (traced && admin.publish_paths.empty()) {
      for (int i = 0; i < kIdlePublishes; ++i) {
        out.phase.publish_s.push_back(Publish(run, &gen, model));
      }
    }
    if (!traced) {
      LadderSpec ladder;
      ladder.base_qps = run->w->ladder_base_qps;
      ladder.slo_us = run->w->slo_us;
      ladder.budget_s = kLadderShare * run->opt.seconds;
      ladder.seed = run->PhaseSeed(3);
      out.ladder = RunLadder(&gen, pool, ladder);
      run->result.Count(out.ladder.attempted, out.ladder.failed,
                        "ladder queries");
      run->ladder_rungs = out.ladder.rungs;
      run->ladder_shed = out.ladder.shed;
    }
    run->result.Check(gen.Admin(kStatsLine, false, &out.stats),
                      "stats scrape");
    run->result.Check(gen.Admin(kMetricsLine, true, &out.metrics_after),
                      "metrics scrape");
  }
  run->result.Check(server.Shutdown(), "gcon_cli serve drains and exits cleanly");
  return out;
}

// Self time of each span (parse -> enqueue -> batch_form -> gather -> gemm
// -> respond): the mark's offset minus the previous mark's, per trace,
// deduplicated across scrapes by request id.
std::array<std::vector<double>, 6> SpanSelfTimes(
    const std::vector<std::string>& replies) {
  static const char* const kMarks[] = {"parse_us",  "enqueue_us",
                                       "batch_form_us", "gather_us",
                                       "gemm_us",   "respond_us"};
  std::map<long long, std::array<double, 6>> traces;
  for (const std::string& doc : replies) {
    const std::string id_key = "{\"id\": ";
    for (std::size_t at = doc.find(id_key); at != std::string::npos;
         at = doc.find(id_key, at + id_key.size())) {
      const long long id = std::strtoll(doc.c_str() + at + id_key.size(),
                                        nullptr, 10);
      std::array<double, 6> offsets{};
      bool complete = true;
      std::size_t cursor = at;
      for (std::size_t m = 0; m < 6 && complete; ++m) {
        const std::string key = std::string("\"") + kMarks[m] + "\": ";
        cursor = doc.find(key, cursor);
        complete = cursor != std::string::npos;
        if (!complete) break;
        cursor += key.size();
        offsets[m] = std::strtod(doc.c_str() + cursor, nullptr);
        complete = offsets[m] >= 0.0;
      }
      if (complete) traces[id] = offsets;
    }
  }
  std::array<std::vector<double>, 6> self;
  for (const auto& entry : traces) {
    const std::array<double, 6>& offsets = entry.second;
    self[0].push_back(offsets[0]);
    for (std::size_t m = 1; m < 6; ++m) {
      self[m].push_back(offsets[m] - offsets[m - 1]);
    }
  }
  return self;
}

// Replays the workload's request stream through the binary codec (server
// side: parse each request, encode each response) and the JSON codec of
// the admin path, timing each call from here.
void CodecReplay(Run* run, const QueryPool& pool, const std::string& model) {
  Result& result = run->result;
  gcon::Rng rng(run->PhaseSeed(9));
  const std::size_t count = 2000;
  std::vector<std::vector<char>> payloads;  // vector storage: f32-aligned
  std::vector<gcon::ServeResponse> responses;
  double request_bytes = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = rng.UniformInt(pool.frames.size());
    const std::string& frame = pool.frames[k];
    request_bytes += static_cast<double>(frame.size());
    payloads.emplace_back(frame.begin() + gcon::kFrameHeaderBytes,
                          frame.end());
    gcon::ServeResponse response;
    response.id = static_cast<std::int64_t>(i);
    response.node = pool.nodes[k];
    const gcon::Matrix& expected = pool.expected[0];
    response.logits.assign(expected.RowPtr(k),
                           expected.RowPtr(k) + expected.cols());
    response.label = static_cast<int>(
        std::max_element(response.logits.begin(), response.logits.end()) -
        response.logits.begin());
    responses.push_back(std::move(response));
  }

  std::size_t parsed = 0;
  std::string error;
  double start = Now();
  for (const std::vector<char>& payload : payloads) {
    gcon::ServeRequest request;
    parsed += gcon::ParseRequestPayload(payload.data(), payload.size(),
                                        &request, &error)
                  ? 1
                  : 0;
  }
  const double parse_us = (Now() - start) / count * 1e6;
  result.Check(parsed == count, "replayed request frames parse");

  double response_bytes = 0.0;
  start = Now();
  for (const gcon::ServeResponse& response : responses) {
    response_bytes +=
        static_cast<double>(gcon::EncodeResponseFrame(response).size());
  }
  const double encode_us = (Now() - start) / count * 1e6;

  const std::vector<std::string> admin_lines = {
      PublishLine(model), kStatsLine, kMetricsLine, "{\"cmd\": \"trace\"}"};
  std::size_t wire_ok = 0;
  const int reps = 250;
  start = Now();
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& line : admin_lines) {
      gcon::WireCommand command;
      gcon::ServeRequest request;
      wire_ok += gcon::ParseWireRequest(line, &command, &request, &error) ? 1 : 0;
    }
  }
  const double wire_parse_us =
      (Now() - start) / (reps * admin_lines.size()) * 1e6;
  result.Check(wire_ok == reps * admin_lines.size(),
               "replayed admin lines parse");
  double wire_bytes = 0.0;
  start = Now();
  for (const gcon::ServeResponse& response : responses) {
    wire_bytes += static_cast<double>(gcon::FormatWireResponse(response).size());
  }
  const double wire_encode_us = (Now() - start) / count * 1e6;
  result.Check(wire_bytes > 0.0, "JSON responses encode");

  result.Add("serve.frame.parse_us", parse_us, "us");
  result.Add("serve.frame.encode_us", encode_us, "us");
  result.Add("serve.frame.req_bytes", request_bytes / count, "bytes");
  result.Add("serve.frame.resp_bytes", response_bytes / count, "bytes");
  result.Add("serve.wire.parse_us", wire_parse_us, "us");
  result.Add("serve.wire.encode_us", wire_encode_us, "us");
}

// Median QueryBatch time at the batch size the server actually formed.
double SessionBatchUs(Run* run, const gcon::GconArtifact& artifact,
                      const QueryPool& pool, std::size_t batch_size) {
  const gcon::InferenceSession session(artifact, run->graph);
  gcon::Rng rng(run->PhaseSeed(10));
  std::vector<double> us;
  std::size_t rows = 0;
  const double until = Now() + 0.5;
  while ((us.size() < 20 || Now() < until) && us.size() < 5000) {
    std::vector<const gcon::ServeRequest*> batch;
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(&pool.requests[rng.UniformInt(pool.requests.size())]);
    }
    const double start = Now();
    rows += session.QueryBatch(batch).rows();
    us.push_back((Now() - start) * 1e6);
  }
  run->result.Check(rows == us.size() * batch_size, "session answers batches");
  return Median(us);
}

void RunTraced(Run* run) {
  const Workload& w = *run->w;
  Result& result = run->result;
  GenerateGraphFile(*run);
  run->graph = std::make_shared<const gcon::Graph>(
      gcon::LoadGraph(run->graph_path));

  // The release, untraced (gcon_cli) and staged (in-process).
  const Release release = RunRelease(run, "release.model", Run::kTrainSeed);
  const StagedRelease s = CheckInProcess(run, release);
  result.Add("graph.load_s", s.load_s, "s");
  result.Add("nn.mlp_train_s", s.mlp_train_s, "s");
  result.Add("nn.mlp_forward_s", s.mlp_forward_s, "s");
  result.Add("nn.encoder_gflop", s.encoder_gflop, "gflop-computed");
  result.Add("core.normalize_s", s.normalize_s, "s");
  result.Add("propagation.transition_s", s.transition_s, "s");
  result.Add("propagation.propagate_s", s.propagate_s, "s");
  result.Add("propagation.cache_misses", s.cache_misses, "count");
  result.Add("core.theorem1_s", s.theorem1_s, "s");
  result.Add("core.noise_s", s.noise_s, "s");
  result.Add("core.minimize_s", s.minimize_s, "s");
  result.Add("core.minimize_iters", s.minimize_iters, "count");
  result.Add("core.minimize_grad_norm", s.grad_norm, "norm");
  result.Add("core.artifact_save_s", s.save_s, "s");
  result.Add("core.artifact_bytes",
             static_cast<double>(ReadFile(release.path).size()), "bytes");
  result.Add("core.train_traced_s", s.total_s, "s");
  result.Add("core.train_residual_s", s.total_s - s.StageSum(), "s");
  result.Add("trace.overhead_train_s", s.total_s - release.wall_s, "s");
  result.Add("linalg.gemm_calls", s.gemm_calls, "count");
  result.Add("linalg.gemm_gflop", s.gemm_gflop, "gflop");

  // What a server pays per start and per publish, and the ledger's
  // durable two-phase write.
  std::vector<double> load_s;
  std::vector<double> init_s;
  for (int i = 0; i < 3; ++i) {
    double start = Now();
    gcon::GconArtifact artifact = gcon::LoadModel(release.path);
    load_s.push_back(Now() - start);
    gcon::PropagationCache::Global().Clear();  // a server builds it cold
    start = Now();
    const gcon::InferenceSession session(std::move(artifact), run->graph);
    init_s.push_back(Now() - start);
  }
  result.Add("core.artifact_load_s", Median(load_s), "s");
  result.Add("serve.session_init_s", Median(init_s), "s");
  {
    gcon::BudgetLedger ledger(run->Path("probe-ledger.txt"));
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
      const double start = Now();
      const gcon::BudgetLedger::Reservation reservation = ledger.Reserve(
          1, "probe", 1.0, 1e-5, static_cast<std::uint64_t>(i) + 1, 0.0);
      ledger.Commit(reservation);
      ms.push_back((Now() - start) * 1e3);
    }
    result.Add("dp.ledger_reserve_commit_ms", Median(ms), "ms");
  }

  // The workload's traffic against a --trace-sample 1 server, then the
  // same schedule against a default one: the difference is the tracing
  // overhead.
  const std::vector<gcon::GconArtifact> artifacts = {
      gcon::LoadModel(release.path)};
  const QueryPool pool = MakePool(run, artifacts);
  AdminPlan admin;
  if (w.kind == Kind::kInductive) {
    admin.publish_interval_s = PublishInterval(*run);
    admin.publish_paths = {release.path};
    admin.publish_artifacts = {0};
  }
  const ServeSample traced = MeasureServe(run, release.path, pool, admin, true);
  const ServeSample plain = MeasureServe(run, release.path, pool, admin, false);

  const double client_p50 = Quantile(traced.phase.latency_us, 0.5);
  const double server_p50 = JsonNumber(traced.stats, "p50_us");
  const double server_p99 = JsonNumber(traced.stats, "p99_us");
  const double mean_batch = JsonNumber(traced.stats, "mean_batch");
  result.Add("linalg.serve_gemm_calls",
             SumSeries(traced.metrics_after, "gcon_gemm_calls_total") -
                 SumSeries(traced.metrics_before, "gcon_gemm_calls_total"),
             "count");
  result.Add("linalg.serve_gemm_gflop",
             (SumSeries(traced.metrics_after, "gcon_gemm_flops_total") -
              SumSeries(traced.metrics_before, "gcon_gemm_flops_total")) /
                 1e9,
             "gflop");
  result.Add("serve.batcher.mean_batch", mean_batch, "count");
  result.Add("serve.batcher.queue_peak", JsonNumber(traced.stats, "queue_peak"),
             "count");
  result.Add("serve.batcher.rejected_overload",
             JsonNumber(traced.stats, "rejected_overload"), "count");
  result.Add("serve.batcher.rejected_deadline",
             JsonNumber(traced.stats, "rejected_deadline"), "count");
  result.Add("serve.server.latency_p50_us", server_p50, "us");
  result.Add("serve.server.latency_p99_us", server_p99, "us");
  result.Add("serve.transport_overhead_p50_us", client_p50 - server_p50, "us");

  const std::size_t batch_size = static_cast<std::size_t>(
      std::max(1.0, std::round(std::isfinite(mean_batch) ? mean_batch : 1.0)));
  const double batch_us =
      SessionBatchUs(run, artifacts[0], pool, batch_size);
  result.Add("serve.session.batch_us", batch_us, "us");
  result.Add("serve.session.row_us", batch_us / batch_size, "us");
  result.Add("serve.batcher.queue_wait_p50_us", server_p50 - batch_us, "us");
  result.Add("serve.batcher.queue_wait_p99_us", server_p99 - batch_us, "us");
  CodecReplay(run, pool, release.path);

  const std::array<std::vector<double>, 6> spans =
      SpanSelfTimes(traced.phase.traces);
  result.Check(!spans[0].empty(), "the trace verb returned span timelines");
  const char* const kSpanMetrics[] = {
      "serve.trace.parse_us",  "serve.trace.enqueue_us",
      "serve.trace.batch_form_us", "serve.trace.gather_us",
      "serve.trace.gemm_us",   "serve.trace.respond_us"};
  for (std::size_t m = 0; m < 6; ++m) {
    result.Add(kSpanMetrics[m], Median(spans[m]), "us");
  }
  result.Add("serve.trace.samples", static_cast<double>(spans[0].size()),
             "count");
  result.Add("trace.overhead_p50_us",
             client_p50 - Quantile(plain.phase.latency_us, 0.5), "us");
  result.Add("serve.publish_s", Median(traced.phase.publish_s), "s");
  result.Add("serve.client_p99_us", ScoreNominal(run, plain.phase, 0.99),
             "us");
  result.Add("serve.max_qps_at_slo", plain.ladder.max_qps, "qps");
  result.Add("loadgen.late_p99_us", Quantile(plain.phase.late_us, 0.99), "us");
  result.Add("loadgen.samples",
             static_cast<double>(plain.phase.latency_us.size()), "count");
  run->nominal_samples = plain.phase.latency_us.size();
  // Last, so it covers every check above.
  result.Add("error_rate",
             static_cast<double>(result.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(result.attempted(), 1)),
             "ratio");
}

std::string ConfigJson(const Run& run) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << "{\"workload\": " << JsonString(run.w->name)
      << ", \"seed\": " << run.opt.seed << ", \"seconds\": " << run.opt.seconds
      << ", \"trace\": " << (run.opt.trace ? 1 : 0)
      << ", \"dataset\": " << JsonString(run.spec.name)
      << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"omp_num_threads\": \"unset\""
      << ", \"serve_flags\": \"shipped defaults\""
      << ", \"connections\": " << Connections()
      << ", \"git_sha\": " << JsonString(run.sha)
      << ", \"compiler\": " << JsonString(run.compiler)
      << ", \"simd\": " << JsonString(run.simd)
      << ", \"slo_us\": " << run.w->slo_us
      << ", \"nominal_qps\": " << run.w->nominal_qps
      << ", \"nominal_samples\": " << run.nominal_samples
      << ", \"late_p50_us\": " << run.late_p50_us
      << ", \"late_p99_us\": " << run.late_p99_us
      << ", \"windows\": " << run.windows
      << ", \"windows_behind\": " << run.windows_behind
      << ", \"ladder_rungs\": " << run.ladder_rungs
      << ", \"ladder_shed\": " << run.ladder_shed << "}";
  return out.str();
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt->seconds = std::stod(value);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--cli") {
      opt->cli = value;
    } else if (key == "--work") {
      opt->work = value;
    } else if (key == "--scale") {
      opt->tiny = value == "tiny";
    } else {
      return false;
    }
  }
  return !opt->cli.empty() && !opt->work.empty() && opt->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Options opt;
  bool parsed = false;
  try {
    parsed = ParseOptions(argc, argv, &opt);
  } catch (const std::exception&) {
    parsed = false;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (!parsed || workload == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "--seconds S --trace 0|1 --cli PATH --work DIR "
                 "[--scale paper|tiny]\n");
    return 2;
  }
  if (std::getenv("OMP_NUM_THREADS") != nullptr) {
    std::fprintf(stderr,
                 "perfbench: OMP_NUM_THREADS is set; the benchmark measures "
                 "gcon_cli's shipped thread defaults\n");
    return 2;
  }
  Run run;
  run.opt = opt;
  run.w = workload;
  run.spec = opt.tiny ? gcon::TinySpec() : gcon::CoraMlSpec();
  run.graph_path = run.Path("graph.txt");
  try {
    if (opt.trace) {
      RunTraced(&run);
    } else {
      RunUntraced(&run);
    }
  } catch (const std::exception& e) {
    run.result.Check(false, std::string("run aborted: ") + e.what());
  }
  std::printf("# config %s\n%s\n", ConfigJson(run).c_str(),
              run.result.Json().c_str());
  return run.result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
