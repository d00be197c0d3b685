#include "util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

bool ExitInfo::ok() const {
  return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

pid_t Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path, const std::string& stderr_path) {
  const std::string out = stdout_path.empty() ? "/dev/null" : stdout_path;
  const std::string err = stderr_path.empty() ? "/dev/null" : stderr_path;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

namespace {

ExitInfo Reaped(int status, const rusage& usage) {
  ExitInfo info;
  info.status = status;
  info.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return info;
}

}  // namespace

ExitInfo Wait(pid_t pid) {
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t r = ::wait4(pid, &status, 0, &usage);
    if (r == pid) return Reaped(status, usage);
    if (r < 0 && errno == EINTR) continue;
    return ExitInfo{};
  }
}

bool Exited(pid_t pid, ExitInfo* info) {
  int status = 0;
  rusage usage{};
  const pid_t r = ::wait4(pid, &status, WNOHANG, &usage);
  if (r == pid) {
    *info = Reaped(status, usage);
    return true;
  }
  if (r < 0 && errno != EINTR) {  // not (or no longer) our child
    *info = ExitInfo{};
    return true;
  }
  return false;
}

ExitInfo Stop(pid_t pid, double grace_s) {
  ::kill(pid, SIGTERM);
  const double deadline = Now() + grace_s;
  ExitInfo info;
  while (!Exited(pid, &info)) {
    if (Now() > deadline) {
      ::kill(pid, SIGKILL);
      Wait(pid);
      return ExitInfo{};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return info;
}

double VmHwmMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool RecvAll(int fd, char* dst, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, dst + got, len - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool RecvUntil(int fd, const std::string& terminator, std::string* buffer,
               std::string* out) {
  for (;;) {
    const std::size_t at = buffer->find(terminator);
    if (at != std::string::npos) {
      const std::size_t end = at + terminator.size();
      out->assign(*buffer, 0, end);
      buffer->erase(0, end);
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

double SumSeries(const std::string& exposition, const std::string& name) {
  double sum = 0.0;
  std::istringstream in(exposition);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() <= name.size() || line.compare(0, name.size(), name) != 0) {
      continue;
    }
    const char next = line[name.size()];
    if (next != '{' && next != ' ') continue;
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

double JsonNumber(const std::string& doc, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle);
  if (at == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(doc.c_str() + at + needle.size(), nullptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is a finite number");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit};
}

void Result::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Result::Count(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: FAILED: %s (%llu of %llu)\n",
                 what.c_str(), static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

std::string Result::Json() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(17);
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ") << JsonString(name)
        << ": {\"value\": " << metric.value
        << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
