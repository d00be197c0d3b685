// Small helpers shared by the perfbench harness: clocks, order statistics,
// child processes, loopback sockets, and the result document.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in seconds.
double Now();

/// Median (mean of the middle pair for even counts); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// A reaped child: its wait status and its own peak RSS.
struct ExitInfo {
  int status = -1;
  double max_rss_mb = 0.0;  ///< ru_maxrss of the child, MiB
  bool ok() const;          ///< exited normally with code 0
};

/// Starts `argv` with stdin from /dev/null and stdout/stderr sent to the
/// given files ("" means /dev/null). Throws std::runtime_error when the
/// program cannot start.
pid_t Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path, const std::string& stderr_path);

/// Blocking reap with rusage.
ExitInfo Wait(pid_t pid);

/// True (and *info filled) once `pid` has exited and been reaped; never
/// blocks.
bool Exited(pid_t pid, ExitInfo* info);

/// SIGTERM, up to `grace_s` for a clean exit, then SIGKILL; always reaps.
/// A child that needed SIGKILL reports !ok().
ExitInfo Stop(pid_t pid, double grace_s = 10.0);

/// Peak resident set (VmHWM) of a live process, MiB; 0 when unreadable.
double VmHwmMb(pid_t pid);

std::string ReadFile(const std::string& path);

/// Blocking loopback connection with TCP_NODELAY and a 30 s receive
/// timeout; -1 on failure.
int ConnectLoopback(int port);
bool SendAll(int fd, const std::string& data);
bool RecvAll(int fd, char* dst, std::size_t len);

/// Reads until `buffer` holds `terminator`, then moves everything up to and
/// including it into *out. False on EOF, timeout or a socket error.
bool RecvUntil(int fd, const std::string& terminator, std::string* buffer,
               std::string* out);

/// Sum over every series of metric family `name` in a Prometheus text
/// exposition (0 when absent).
double SumSeries(const std::string& exposition, const std::string& name);

/// First number following `"key": ` in a flat JSON document; NaN if absent.
double JsonNumber(const std::string& doc, const std::string& key);

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text);

/// The result document: named metrics with units plus the attempt tally.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string Json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
