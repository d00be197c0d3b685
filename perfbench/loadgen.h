// Open-loop load generator for `gcon_cli serve` over the binary frame
// transport (serve/frame.h), and the frozen rate ladder built on it.
//
// One thread runs one ppoll loop over a few binary connections and one
// newline-JSON admin connection, so the server keeps the machine's other
// cores. Arrivals follow a seeded Poisson schedule, and every latency is
// timed from the request's *due* time, not from when it was sent: a stall in
// the server, or in this loop, is charged to every request it delays. How
// late the loop sent each request is recorded too, so a phase whose
// generator fell behind can be told apart from a slow server.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "serve/inference_session.h"

namespace perfbench {

/// A workload's distinct queries and the logits each must come back with.
struct QueryPool {
  std::vector<gcon::ServeRequest> requests;
  std::vector<std::string> frames;  ///< encoded requests; id patched per send
  std::vector<int> nodes;           ///< node each response echoes (-1 inductive)
  /// expected[a] row k: the logits artifact `a` answers requests[k] with.
  std::vector<gcon::Matrix> expected;
};

/// The JSON admin traffic riding alongside a phase; every publish is
/// followed by a `metrics` scrape.
struct AdminPlan {
  double publish_interval_s = 0.0;  ///< 0 = no publishes
  /// Publish i loads publish_paths[i % n]; its answers are expected-table
  /// entry publish_artifacts[i % n].
  std::vector<std::string> publish_paths;
  std::vector<int> publish_artifacts;
  double trace_interval_s = 0.0;  ///< 0 = no `trace` scrapes
};

struct PhaseSpec {
  double rate_qps = 0.0;
  double duration_s = 0.0;
  std::uint64_t seed = 1;
  AdminPlan admin;
};

struct PhaseResult {
  std::vector<double> latency_us;  ///< correct answers, due time to receipt
  /// late_us[i]: how late latency_us[i]'s query was sent (send time minus
  /// due time), so a window of answers can be told to be scored or not.
  std::vector<double> late_us;
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;      ///< error frames
  std::uint64_t mismatches = 0;  ///< wrong id, node, or logits bits
  /// Scheduled arrivals never sent: once the backlog of unanswered queries
  /// reaches its limit, the rest of the schedule is shed. Each counts as an
  /// attempted, failed (unanswered) query.
  std::uint64_t unsent = 0;
  std::vector<double> publish_s;  ///< publish round trips
  std::uint64_t admin_sent = 0;
  std::uint64_t admin_failed = 0;
  std::vector<std::string> traces;  ///< raw `trace` replies

  bool shed() const { return unsent > 0; }
  std::uint64_t attempted() const { return sent + unsent + admin_sent; }
  std::uint64_t failed() const {
    return errors + mismatches + unsent + admin_failed;
  }
};

/// {"cmd": "publish", ...} hot-swapping the default model to `path`.
std::string PublishLine(const std::string& path);

/// Connects and completes the binary hello; -1 on failure.
int ConnectBinary(int port);

/// Reads one frame; false on EOF, timeout or error.
bool ReadFrame(int fd, std::uint8_t* type, std::string* payload);

class LoadGen {
 public:
  /// Opens `connections` binary connections plus one JSON admin connection.
  /// Throws std::runtime_error when the server cannot be reached.
  LoadGen(int port, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// One open-loop phase. Throws if a connection dies or a query is still
  /// unanswered after the drain timeout: the streams can no longer be
  /// matched to their requests.
  PhaseResult Run(const PhaseSpec& spec, const QueryPool& pool);

  /// Blocking admin round trip; `multi_line` replies end with "# EOF".
  bool Admin(const std::string& line, bool multi_line, std::string* reply);

 private:
  struct Pending {
    std::int64_t id;
    std::size_t key;
    double due;
    double late_us;
    std::size_t oldest_version;  ///< newest version known live at send time
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
    std::size_t in_off = 0;
    std::deque<Pending> inflight;
  };

  void CloseAll();

  std::vector<Conn> conns_;
  int admin_fd_ = -1;
  std::string admin_in_;
  std::int64_t next_id_ = 1;
  int served_artifact_ = 0;  ///< expected-table entry now being served
};

/// The frozen rate ladder: rung i offers base_qps * 1.05^i for
/// max(0.3 s, 3000 arrivals).
struct LadderSpec {
  double base_qps = 0.0;
  double slo_us = 0.0;    ///< p99 limit a passing rung meets
  double budget_s = 0.0;  ///< wall time the walk may take
  std::uint64_t seed = 1;
};

struct LadderResult {
  double max_qps = 0.0;  ///< highest passing rung (0 when none passed)
  int rungs = 0;         ///< phases run
  std::uint64_t attempted = 0;
  /// Error frames, mismatches and failed admin replies. Arrivals a rung
  /// above the knee shed are not among them: shedding fails the rung, which
  /// is what the ladder probes for, not the run.
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;  ///< arrivals shed across all rungs
};

/// Median over `windows` consecutive equal slices of `latency_us` of each
/// slice's q-quantile: one stall moves one slice, not the result.
double WindowedQuantile(const std::vector<double>& latency_us, double q,
                        int windows);

/// A rung passes when nothing failed or was shed (the backlog stayed
/// bounded), the generator kept its schedule (late p99 at most half the
/// SLO), the windowed p99 meets the SLO, and the last window's median
/// does too.
bool RungPasses(const PhaseResult& r, double slo_us);

/// A coarse pass up the ladder, 4 rungs a step, until three steps in a row
/// fail, then single rungs above the highest coarse pass; a rung counts as
/// failed only after a second attempt also fails.
LadderResult RunLadder(LoadGen* gen, const QueryPool& pool,
                       const LadderSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
