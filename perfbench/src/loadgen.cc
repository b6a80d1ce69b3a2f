#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "traced_pipeline.h"

extern char** environ;

namespace perfbench {
namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads until EOF, or until a newline when `one_line` is set.
std::string ReadAll(int fd, bool one_line) {
  std::string out;
  char buf[65536];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 30000) <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
    if (one_line && out.find('\n') != std::string::npos) break;
  }
  return out;
}

// One blocking HTTP/1.0 GET on loopback; returns the body ("" on error).
std::string HttpGet(int port, const std::string& path) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string body;
  if (SendAll(fd, "GET " + path + " HTTP/1.0\r\n\r\n")) {
    body = ReadAll(fd, /*one_line=*/false);
    const size_t at = body.find("\r\n\r\n");
    body = at == std::string::npos ? "" : body.substr(at + 4);
  }
  ::close(fd);
  return body;
}

// The value of the first sample of metric `name` in an OpenMetrics
// exposition, or -1 when absent.
int64_t MetricValue(const std::string& exposition, const std::string& name) {
  size_t at = 0;
  while ((at = exposition.find(name, at)) != std::string::npos) {
    const bool line_start = at == 0 || exposition[at - 1] == '\n';
    at += name.size();
    if (line_start && at < exposition.size() &&
        (exposition[at] == ' ' || exposition[at] == '{')) {
      const size_t sp = exposition.find(' ', at);
      if (sp == std::string::npos) return -1;
      return static_cast<int64_t>(std::atof(exposition.c_str() + sp + 1));
    }
  }
  return -1;
}

// One connection's share of the schedule: requests c, c + C, c + 2C, ...
void ConnectionLoop(int fd, const std::vector<std::string>& lines,
                    const std::vector<size_t>& mine, int64_t hard_stop_ns,
                    std::vector<RequestRecord>* records) {
  // The default 50 us timer slack would make every send that late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  size_t next_send = 0;
  size_t next_recv = 0;
  std::string wbuf;
  size_t woff = 0;
  std::string rbuf;
  char buf[65536];
  bool closed = false;
  while (next_recv < mine.size() && !closed) {
    int64_t now = NowNs();
    if (now >= hard_stop_ns) break;
    while (next_send < mine.size() &&
           (*records)[mine[next_send]].due_ns <= now) {
      RequestRecord& r = (*records)[mine[next_send]];
      r.sent_ns = now;
      wbuf += lines[r.line];
      wbuf += '\n';
      ++next_send;
    }
    if (woff < wbuf.size()) {
      const ssize_t n = ::send(fd, wbuf.data() + woff, wbuf.size() - woff,
                               MSG_NOSIGNAL);
      if (n > 0) woff += static_cast<size_t>(n);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        break;
      }
      if (woff == wbuf.size()) {
        wbuf.clear();
        woff = 0;
      }
    }
    int64_t wait_ns = 20'000'000;
    if (next_send < mine.size()) {
      wait_ns = std::min(wait_ns, (*records)[mine[next_send]].due_ns - now);
    }
    wait_ns = std::max<int64_t>(wait_ns, 0);
    const short events =
        static_cast<short>(POLLIN | (woff < wbuf.size() ? POLLOUT : 0));
    pollfd p{fd, events, 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        rbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      break;
    }
    const int64_t t = NowNs();
    size_t start = 0;
    size_t nl;
    while ((nl = rbuf.find('\n', start)) != std::string::npos &&
           next_recv < next_send) {
      RequestRecord& r = (*records)[mine[next_recv++]];
      r.received_ns = t;
      r.response.assign(rbuf, start, nl - start);
      start = nl + 1;
    }
    rbuf.erase(0, start);
  }
  ::close(fd);
}

// Whether `pid` has installed a handler for SIGTERM: bit SIGTERM - 1 of
// the SigCgt mask in /proc/<pid>/status.
bool CatchesSigterm(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[256];
  bool caught = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "SigCgt:", 7) == 0) {
      const uint64_t mask = std::strtoull(line + 7, nullptr, 16);
      caught = (mask >> (SIGTERM - 1)) & 1;
      break;
    }
  }
  std::fclose(f);
  return caught;
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& cli,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], 2);
  std::vector<std::string> argv_s = {cli, "serve", "--port", "0"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  if (rc != 0) {
    ::close(pipefd[0]);
    pid_ = -1;
    *error = "cannot start " + cli + ": " + std::strerror(rc);
    return false;
  }
  stderr_fd_ = pipefd[0];
  std::string banner;
  char buf[4096];
  const int64_t give_up = NowNs() + 20'000'000'000;
  while (NowNs() < give_up) {
    pollfd p{stderr_fd_, POLLIN, 0};
    if (::poll(&p, 1, 1000) <= 0) continue;
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    banner.append(buf, static_cast<size_t>(n));
    const size_t at = banner.find("serving on ");
    if (at == std::string::npos) continue;
    const size_t eol = banner.find('\n', at);
    if (eol == std::string::npos) continue;
    const size_t colon = banner.rfind(':', eol);
    port_ = std::atoi(banner.c_str() + colon + 1);
    ::fcntl(stderr_fd_, F_SETFL, ::fcntl(stderr_fd_, F_GETFL) | O_NONBLOCK);
    return port_ > 0;
  }
  *error = "server did not announce its port: " + banner;
  Stop();
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  // `pebblejoin serve` announces its port before it installs its SIGTERM
  // handler, so a SIGTERM sent in between kills it instead of draining it
  // (a start-up race in the CLI; the set-up probes, which stop a server
  // right after its first answer, hit it under load). Wait up to 5 s for
  // the handler, so that what is checked below is the drain.
  const int64_t handler_deadline = NowNs() + 5'000'000'000;
  while (!CatchesSigterm(pid_) && NowNs() < handler_deadline) {
    ::usleep(1000);
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const int64_t give_up = NowNs() + 10'000'000'000;
  char buf[4096];
  while (NowNs() < give_up) {
    if (stderr_fd_ >= 0) {
      ssize_t n;
      while ((n = ::read(stderr_fd_, buf, sizeof(buf))) > 0) {
        log_.append(buf, static_cast<size_t>(n));
      }
    }
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    ::usleep(2000);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string RoundTrip(int port, const std::string& line) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  std::string out;
  if (SendAll(fd, line + "\n")) out = ReadAll(fd, /*one_line=*/true);
  ::close(fd);
  const size_t nl = out.find('\n');
  return nl == std::string::npos ? out : out.substr(0, nl);
}

OpenLoopResult RunOpenLoop(int port, const std::vector<std::string>& lines,
                           const std::vector<int>& order, size_t first,
                           const OpenLoopConfig& config) {
  OpenLoopResult result;
  const int64_t n = std::max<int64_t>(
      1, std::llround(config.rate * config.seconds));
  const double interval_ns = 1e9 / config.rate;
  std::vector<int> fds;
  for (int c = 0; c < config.connections; ++c) {
    const int fd = ConnectLoopback(port);
    if (fd >= 0) fds.push_back(fd);
  }
  // Connections are open before the clock starts, so set-up is not
  // charged to the first requests.
  result.start_ns = NowNs() + 5'000'000;
  result.records.resize(static_cast<size_t>(n));
  std::vector<std::vector<size_t>> mine(std::max<size_t>(1, fds.size()));
  for (int64_t i = 0; i < n; ++i) {
    RequestRecord& r = result.records[static_cast<size_t>(i)];
    r.line = order[(first + static_cast<size_t>(i)) % order.size()];
    r.due_ns = result.start_ns + static_cast<int64_t>(i * interval_ns);
    const size_t index = static_cast<size_t>(i);
    mine[index % mine.size()].push_back(index);
  }
  result.window_end_ns = result.records.back().due_ns;
  const int64_t hard_stop =
      result.window_end_ns + static_cast<int64_t>(config.drain_timeout_s * 1e9);
  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < fds.size(); ++c) {
    threads.emplace_back([&, c] {
      ConnectionLoop(fds[c], lines, mine[c], hard_stop, &result.records);
      finished.fetch_add(1);
    });
  }
  while (config.poll_metrics && finished.load() < threads.size()) {
    result.inflight_max =
        std::max(result.inflight_max,
                 MetricValue(HttpGet(port, "/metrics"),
                             "pebblejoin_serve_inflight"));
    ::usleep(20000);
  }
  for (std::thread& t : threads) t.join();
  for (const RequestRecord& r : result.records) {
    if (r.sent_ns > 0) {
      result.lag_ns_max = std::max(result.lag_ns_max, r.sent_ns - r.due_ns);
    }
    result.last_response_ns = std::max(result.last_response_ns, r.received_ns);
  }
  return result;
}

}  // namespace perfbench
