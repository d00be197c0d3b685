#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <stdexcept>

#include "rng/rng.h"
#include "serve/frame.h"
#include "util.h"

namespace perfbench {
namespace {

constexpr double kDrainTimeoutS = 5.0;
constexpr double kSpinWindowS = 0.002;
// Once this many queries are unanswered the backlog is growing: the rest of
// the schedule is shed. It sits below the server's default --max_queue
// (4096), so the server never refuses for overload.
constexpr std::size_t kMaxOutstanding = 4000;
// A rung's p99 is the median over this many consecutive windows, so one
// host stall does not decide it.
constexpr int kRungWindows = 3;
constexpr double kLadderRatio = 1.05;
constexpr int kCoarseStride = 4;
constexpr double kMinRungS = 0.3;
constexpr double kMinRungArrivals = 3000.0;
constexpr std::size_t kChunk = 1 << 16;

std::uint32_t LoadU32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         static_cast<std::uint32_t>(u[1]) << 8 |
         static_cast<std::uint32_t>(u[2]) << 16 |
         static_cast<std::uint32_t>(u[3]) << 24;
}

// A request frame carries its id (i64 LE) at payload offset 0.
void StoreId(char* frame, std::int64_t id) {
  const auto bits = static_cast<std::uint64_t>(id);
  for (std::size_t b = 0; b < 8; ++b) {
    frame[gcon::kFrameHeaderBytes + b] = static_cast<char>(bits >> (8 * b));
  }
}

// Writes whatever the socket takes now. False when the peer is gone.
bool FlushSome(int fd, std::string* out, std::size_t* off) {
  while (*off < out->size()) {
    const ssize_t n = ::send(fd, out->data() + *off, out->size() - *off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      *off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  out->clear();
  *off = 0;
  return true;
}

// Reads everything available now. False on EOF or a socket error.
bool ReadSome(int fd, std::string* in) {
  char chunk[kChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      in->append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool RowMatches(const gcon::Matrix& expected, std::size_t row,
                const std::vector<double>& logits) {
  return row < expected.rows() && logits.size() == expected.cols() &&
         std::memcmp(expected.RowPtr(row), logits.data(),
                     logits.size() * sizeof(double)) == 0;
}

timespec ToTimespec(double seconds) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  return ts;
}

}  // namespace

std::string PublishLine(const std::string& path) {
  return "{\"cmd\": \"publish\", \"model\": \"default\", \"path\": " +
         JsonString(path) + "}";
}

int ConnectBinary(int port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return -1;
  char reply[gcon::kFrameHelloBytes];
  std::uint16_t version = 0;
  std::string error;
  if (SendAll(fd, gcon::EncodeHello(gcon::kFrameVersion)) &&
      RecvAll(fd, reply, sizeof(reply)) &&
      gcon::ParseHello(reply, sizeof(reply), &version, &error)) {
    return fd;
  }
  ::close(fd);
  return -1;
}

bool ReadFrame(int fd, std::uint8_t* type, std::string* payload) {
  char header[gcon::kFrameHeaderBytes];
  if (!RecvAll(fd, header, sizeof(header))) return false;
  *type = static_cast<std::uint8_t>(header[4]);
  payload->resize(LoadU32(header));
  return payload->empty() || RecvAll(fd, &(*payload)[0], payload->size());
}

LoadGen::LoadGen(int port, int connections) {
  // Wake-ups land on the schedule, not up to the default 50 us slack late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (int c = 0; c < connections; ++c) {
    Conn conn;
    conn.fd = ConnectBinary(port);
    if (conn.fd < 0) {
      CloseAll();
      throw std::runtime_error("cannot open a binary connection to the server");
    }
    conns_.push_back(std::move(conn));
  }
  admin_fd_ = ConnectLoopback(port);
  if (admin_fd_ < 0) {
    CloseAll();
    throw std::runtime_error("cannot open the admin connection to the server");
  }
}

LoadGen::~LoadGen() { CloseAll(); }

void LoadGen::CloseAll() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
  if (admin_fd_ >= 0) ::close(admin_fd_);
  admin_fd_ = -1;
}

bool LoadGen::Admin(const std::string& line, bool multi_line,
                    std::string* reply) {
  return SendAll(admin_fd_, line + "\n") &&
         RecvUntil(admin_fd_, multi_line ? "# EOF\n" : "\n", &admin_in_,
                   reply);
}

PhaseResult LoadGen::Run(const PhaseSpec& spec, const QueryPool& pool) {
  enum Kind { kPublish, kMetrics, kTrace };
  struct AdminOp {
    std::string line;
    Kind kind;
    int artifact;
    std::size_t version;
  };

  PhaseResult r;
  gcon::Rng rng(spec.seed);
  // versions[v]: the expected-table entry served after the v-th publish.
  // A publish becomes a version when it is sent (it may be live from then
  // on) and is known live once its reply arrives.
  std::vector<int> versions = {served_artifact_};
  std::size_t acked = 0;
  std::deque<AdminOp> admin_queue;
  bool admin_busy = false;
  AdminOp current{};
  double admin_sent_at = 0.0;
  std::string admin_out;
  std::size_t admin_off = 0;
  std::size_t publishes = 0;
  int reports = 0;
  auto report = [&reports](const std::string& what) {
    if (reports++ < 5) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  };

  const double inf = std::numeric_limits<double>::infinity();
  const double t0 = Now() + 0.005;
  const double end = t0 + spec.duration_s;
  double next_due = t0 + rng.Exponential(spec.rate_qps);
  bool sending = next_due < end;
  double next_publish = spec.admin.publish_interval_s > 0
                            ? t0 + 0.5 * spec.admin.publish_interval_s
                            : inf;
  double next_trace = spec.admin.trace_interval_s > 0 ? t0 : inf;
  std::size_t rr = 0;
  std::size_t outstanding = 0;

  auto handle_frame = [&](Conn& conn, const char* frame, std::uint32_t len,
                          double now) {
    if (conn.inflight.empty()) {
      ++r.mismatches;
      report("unsolicited frame from the server");
      return;
    }
    const Pending p = conn.inflight.front();
    conn.inflight.pop_front();
    --outstanding;
    const auto type = static_cast<std::uint8_t>(frame[4]);
    const char* payload = frame + gcon::kFrameHeaderBytes;
    std::string error;
    if (type == static_cast<std::uint8_t>(gcon::FrameType::kError)) {
      ++r.errors;
      gcon::FrameError e;
      gcon::ParseErrorPayload(payload, len, &e, &error);
      report("error frame for query " + std::to_string(p.id) + ": " +
             e.message);
      return;
    }
    gcon::ServeResponse response;
    bool ok = type == static_cast<std::uint8_t>(gcon::FrameType::kResponse) &&
              gcon::ParseResponsePayload(payload, len, &response, &error) &&
              response.id == p.id && response.node == pool.nodes[p.key];
    bool matched = false;
    for (std::size_t v = p.oldest_version; ok && !matched && v < versions.size();
         ++v) {
      matched = RowMatches(pool.expected[static_cast<std::size_t>(versions[v])],
                           p.key, response.logits);
    }
    if (!matched) {
      ++r.mismatches;
      report("response to query " + std::to_string(p.id) +
             " does not match the offline logits of any live artifact");
      return;
    }
    r.latency_us.push_back((now - p.due) * 1e6);
    r.late_us.push_back(p.late_us);
  };

  auto admin_done = [&](const std::string& reply, double now) {
    admin_busy = false;
    bool ok = false;
    switch (current.kind) {
      case kPublish:
        r.publish_s.push_back(now - admin_sent_at);
        ok = reply.rfind("{\"published\"", 0) == 0;
        if (ok) {
          acked = std::max(acked, current.version);
          admin_queue.push_back({"{\"cmd\": \"metrics\"}", kMetrics, -1, 0});
        } else {
          versions[current.version] = versions[current.version - 1];
        }
        break;
      case kMetrics:
        ok = reply.find("gcon_") != std::string::npos;
        break;
      case kTrace:
        ok = reply.rfind("{\"sample_every\"", 0) == 0;
        if (ok) r.traces.push_back(reply);
        break;
    }
    if (!ok) {
      ++r.admin_failed;
      report("admin reply: " + reply.substr(0, 200));
    }
  };

  std::vector<pollfd> fds(conns_.size() + 1);
  for (;;) {
    double now = Now();
    while (sending && next_due <= now) {
      if (outstanding >= kMaxOutstanding) {
        for (; next_due < end; next_due += rng.Exponential(spec.rate_qps)) {
          ++r.unsent;
        }
        sending = false;
        break;
      }
      const std::size_t key = rng.UniformInt(pool.frames.size());
      Conn& conn = conns_[rr++ % conns_.size()];
      const std::size_t at = conn.out.size();
      conn.out += pool.frames[key];
      const std::int64_t id = next_id_++;
      StoreId(&conn.out[at], id);
      conn.inflight.push_back(
          {id, key, next_due, (now - next_due) * 1e6, acked});
      ++outstanding;
      ++r.sent;
      next_due += rng.Exponential(spec.rate_qps);
      if (next_due >= end) sending = false;
    }
    if (sending && now >= next_publish) {
      const std::size_t slot = publishes++ % spec.admin.publish_paths.size();
      admin_queue.push_back({PublishLine(spec.admin.publish_paths[slot]),
                             kPublish, spec.admin.publish_artifacts[slot], 0});
      next_publish += spec.admin.publish_interval_s;
    }
    if (sending && now >= next_trace) {
      admin_queue.push_back({"{\"cmd\": \"trace\"}", kTrace, -1, 0});
      next_trace += spec.admin.trace_interval_s;
    }
    if (!admin_busy && !admin_queue.empty()) {
      current = admin_queue.front();
      admin_queue.pop_front();
      if (current.kind == kPublish) {
        versions.push_back(current.artifact);
        current.version = versions.size() - 1;
      }
      admin_out += current.line + "\n";
      admin_busy = true;
      admin_sent_at = now;
      ++r.admin_sent;
    }

    bool alive = FlushSome(admin_fd_, &admin_out, &admin_off);
    for (Conn& conn : conns_) {
      alive = FlushSome(conn.fd, &conn.out, &conn.out_off) && alive;
    }
    if (!alive) throw std::runtime_error("lost a connection to the server");
    if (!sending && outstanding == 0 && !admin_busy && admin_queue.empty()) {
      break;
    }
    if (!sending && now > end + kDrainTimeoutS) {
      throw std::runtime_error(std::to_string(outstanding) +
                               " queries unanswered after the drain timeout");
    }

    // Idle vCPUs on a virtual machine can take milliseconds to wake, so
    // the loop spins (ppoll without sleeping) once a send is near, and only
    // sleeps through longer gaps.
    const double wake =
        sending ? std::min({next_due, next_publish, next_trace}) : now + 0.01;
    const timespec timeout =
        ToTimespec(std::max(0.0, wake - Now() - kSpinWindowS));
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = {conns_[i].fd,
                static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)),
                0};
    }
    fds.back() = {admin_fd_,
                  static_cast<short>(POLLIN | (admin_out.empty() ? 0 : POLLOUT)),
                  0};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    if (ready <= 0) continue;
    now = Now();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& conn = conns_[i];
      if (!ReadSome(conn.fd, &conn.in)) {
        throw std::runtime_error("the server closed a query connection");
      }
      while (conn.in.size() - conn.in_off >= gcon::kFrameHeaderBytes) {
        const char* frame = conn.in.data() + conn.in_off;
        const std::uint32_t len = LoadU32(frame);
        if (conn.in.size() - conn.in_off < gcon::kFrameHeaderBytes + len) {
          break;
        }
        handle_frame(conn, frame, len, now);
        conn.in_off += gcon::kFrameHeaderBytes + len;
      }
      if (conn.in_off == conn.in.size()) {
        conn.in.clear();
        conn.in_off = 0;
      } else if (conn.in_off > kChunk) {
        conn.in.erase(0, conn.in_off);
        conn.in_off = 0;
      }
    }
    if ((fds.back().revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      if (!ReadSome(admin_fd_, &admin_in_)) {
        throw std::runtime_error("the server closed the admin connection");
      }
      const std::string terminator =
          current.kind == kMetrics ? "# EOF\n" : "\n";
      const std::size_t at = admin_in_.find(terminator);
      if (admin_busy && at != std::string::npos) {
        const std::string reply = admin_in_.substr(0, at + terminator.size());
        admin_in_.erase(0, at + terminator.size());
        admin_done(reply, now);
      }
    }
  }
  served_artifact_ = versions.back();
  return r;
}

double WindowedQuantile(const std::vector<double>& latency_us, double q,
                        int windows) {
  std::vector<double> per_window;
  const std::size_t size = latency_us.size() / static_cast<std::size_t>(windows);
  for (int w = 0; w < windows && size > 0; ++w) {
    const auto begin = latency_us.begin() + static_cast<std::ptrdiff_t>(w * size);
    per_window.push_back(Quantile(
        std::vector<double>(begin, begin + static_cast<std::ptrdiff_t>(size)), q));
  }
  return Median(per_window);
}

bool RungPasses(const PhaseResult& r, double slo_us) {
  if (r.failed() > 0 || r.latency_us.size() < 300) return false;
  if (Quantile(r.late_us, 0.99) > 0.5 * slo_us) return false;
  if (WindowedQuantile(r.latency_us, 0.99, kRungWindows) > slo_us) return false;
  // No growing backlog: the last window's median still meets the SLO.
  const std::vector<double> last(
      r.latency_us.end() -
          static_cast<std::ptrdiff_t>(r.latency_us.size() / kRungWindows),
      r.latency_us.end());
  return Quantile(last, 0.5) <= slo_us;
}

LadderResult RunLadder(LoadGen* gen, const QueryPool& pool,
                       const LadderSpec& spec) {
  LadderResult out;
  const double deadline = Now() + spec.budget_s;
  std::uint64_t seed = spec.seed;
  auto rate = [&spec](int i) { return spec.base_qps * std::pow(kLadderRatio, i); };
  // 1 = pass, 0 = fail, -1 = out of time.
  auto attempt = [&](int i) {
    for (int tries = 0; tries < 2; ++tries) {
      PhaseSpec phase;
      phase.rate_qps = rate(i);
      phase.duration_s = std::max(kMinRungS, kMinRungArrivals / phase.rate_qps);
      phase.seed = ++seed * 0x9E3779B97F4A7C15ULL;
      if (Now() + phase.duration_s + 0.1 > deadline) return -1;
      const PhaseResult r = gen->Run(phase, pool);
      ++out.rungs;
      out.attempted += r.attempted();
      out.failed += r.failed() - r.unsent;
      out.shed += r.unsent;
      const bool pass = RungPasses(r, spec.slo_us);
      std::fprintf(stderr,
                   "perfbench: rung %d %.0f qps: p99 %.0f us, late p99 %.0f us, "
                   "%llu sent%s -> %s\n",
                   i, phase.rate_qps, Quantile(r.latency_us, 0.99),
                   Quantile(r.late_us, 0.99),
                   static_cast<unsigned long long>(r.sent),
                   r.shed() ? " (shed)" : "", pass ? "pass" : "fail");
      if (pass) return 1;
    }
    return 0;
  };
  // A host stall can fail a rung below the knee, so the coarse pass keeps
  // climbing until three rungs in a row fail; above the knee the backlog
  // grows and every rung fails.
  int best = -1;
  int failures = 0;
  int i = 0;
  for (; failures < 3; i += kCoarseStride) {
    const int outcome = attempt(i);
    if (outcome < 0) break;
    if (outcome == 1) best = i;
    failures = outcome == 1 ? 0 : failures + 1;
  }
  for (int j = best + 1; j < best + kCoarseStride && attempt(j) == 1; ++j) {
    best = j;
  }
  out.max_qps = best >= 0 ? rate(best) : 0.0;
  return out;
}

}  // namespace perfbench
