// The serve-mix side of the benchmark: starting and stopping a
// `pebblejoin serve` child process, and an open-loop load generator that
// sends JSONL lines on a fixed schedule over a few loopback connections.
//
// Open loop: request i is due at start + i / rate whatever the server
// does, so a stall delays every later request and the queue can grow.
// Latency is measured from the due time, not from the actual send, and
// the generator's own lateness (actual send minus due) is reported.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A running `pebblejoin serve` child.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `cli serve --port 0 <args>` and waits for its "serving on"
  // banner. Returns false with *error set on failure.
  bool Start(const std::string& cli, const std::vector<std::string>& args,
             std::string* error);
  // SIGTERM once the server has installed its SIGTERM handler, then waits
  // for the exit (SIGKILL after a grace period). Returns true when the
  // server drained and exited with status 0.
  bool Stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // What the server wrote to stderr after its banner, once stopped.
  const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  std::string log_;
  int port_ = 0;
  int stderr_fd_ = -1;
};

// Sends one line on a fresh connection and returns the response line.
std::string RoundTrip(int port, const std::string& line);

struct OpenLoopConfig {
  double rate = 100.0;    // requests per second, over all connections
  double seconds = 1.0;   // send window
  int connections = 2;    // one sending/receiving thread each
  // Give up on responses this long after the send window closes.
  double drain_timeout_s = 10.0;
  // Poll GET /metrics from the calling thread while the phase runs and
  // keep the largest pebblejoin_serve_inflight gauge seen.
  bool poll_metrics = false;
};

// Per-request record, in schedule order.
struct RequestRecord {
  int line = -1;            // corpus index
  int64_t due_ns = 0;
  int64_t sent_ns = 0;      // 0 = never sent
  int64_t received_ns = 0;  // 0 = no response
  std::string response;
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;
  int64_t start_ns = 0;
  int64_t window_end_ns = 0;  // last due time
  int64_t last_response_ns = 0;
  int64_t lag_ns_max = 0;     // generator lateness, max over requests
  int64_t inflight_max = -1;  // -1 unless config.poll_metrics
};

// Runs one open-loop phase against `port`. Request i carries
// lines[order[(first + i) % order.size()]].
OpenLoopResult RunOpenLoop(int port, const std::vector<std::string>& lines,
                           const std::vector<int>& order, size_t first,
                           const OpenLoopConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
