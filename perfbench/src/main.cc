// pjbench: the layer-attributed benchmark binary for pebblejoin.
//
//   pjbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH
//
// Workloads (see ../README.md for why each exists):
//   equijoin-bulk   one Theorem 4.1 instance, ~400k edges in 100k K_{a,b}
//   connected-bulk  one connected random 4-regular bipartite graph, 16k
//                   edges, dfs-tree
//   serve-mix       `pebblejoin serve` under an open-loop JSONL request mix
//
// With --trace 0 the run measures the end-to-end metrics with nothing but
// the clock around the public entry points; with --trace 1 it drives the
// same inputs through the layers one public call at a time
// (traced_pipeline.h) and reports the per-layer metrics. Either way the
// last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress and diagnostics go to stderr.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/report.h"
#include "engine/jsonl_request.h"
#include "engine/solve_engine.h"
#include "graph/line_graph.h"
#include "inputs.h"
#include "io/graph_io.h"
#include "loadgen.h"
#include "obs/json.h"
#include "obs/json_value.h"
#include "tests/json_test_util.h"
#include "traced_pipeline.h"
#include "util/random.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace pebblejoin;

// ---------------------------------------------------------------------------
// Fixed benchmark parameters. Changing any of them changes the benchmark.

constexpr int kEquijoinComponents = 100000;  // ~400k edges
constexpr int kConnectedSide = 4000;         // 4000 + 4000 vertices
constexpr int kConnectedDegree = 4;          // 16,000 edges
constexpr int kCorpusLines = 1000;
// Cold starts per set-up sample batch. Every workload takes a batch
// before, between and after its phases, so setup_s is the median over the
// whole run rather than over one moment of it.
constexpr int kSetupRepeats = 15;
// Bulk phases: the low phase takes kBulkLowShare of --seconds and at least
// kBulkMinLow requests (an equijoin-bulk request takes about 6 s at the
// seed state); the high phase takes kBulkHighShare and at least two
// requests per client.
constexpr double kBulkLowShare = 0.5;
constexpr size_t kBulkMinLow = 5;
constexpr double kBulkHighShare = 0.25;
// serve-mix open-loop rates. The search for max_rps_p99 starts at the high
// rate, doubles until a rate fails, then bisects in log rate for the rest
// of kSearchSteps. The traced run also measures latency at the two fixed
// rates, as alternating one-pass blocks.
constexpr double kLowRps = 500;
constexpr double kHighRps = 1000;
constexpr int kSearchSteps = 6;
// Warm in-process passes over the corpus before the socket phases. In a
// trace run passes 1 and 2 count allocations; the per-line times come from
// kTimedPass, which runs with counting off. The end-to-end run adds one
// more warm pass after every search step, so the in-process samples span
// the whole run rather than its first seconds: the VM's speed moves by up
// to a third over tens of seconds.
constexpr int kWarmPasses = 5;
constexpr int kTimedPass = 3;
// The p99 limit a searched rate must meet (latency from the due time), and
// the longest drain after the send window that does not count as a grown
// backlog. Ten times the heaviest line's solve (~15-20 ms): with a 50 ms
// limit, minutes of hypervisor steal (12-21% of CPU time) pushed p99 at
// 1,000 req/s to 50-120 ms and cut max_rps_p99 from ~2,200 to ~500 for
// every run inside them. At 200 ms the limit binds at the saturation knee,
// where latency grows by seconds.
constexpr double kP99LimitMs = 200;
// The serve-mix server's pool width and the load generator's connections
// (ServeArgs sets shed ceilings high enough that nothing is refused below
// saturation).
constexpr int kServeThreads = 2;
constexpr int kServeConnections = 2;
// JsonlRequestRunner defaults that match the server's own.
constexpr int64_t kServeDeadlineCapMs = 10000;
constexpr int64_t kServeMaxLineBytes = int64_t{1} << 20;
constexpr int64_t kBulkMaxLineBytes = int64_t{64} << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;   // the pebblejoin binary serve-mix starts
  std::string self;  // this binary, for the set-up probe
};

const char kProbeLine[] = "{\"graph\": \"bipartite 1 1 1\\n0 0\\n\"}";

// ---------------------------------------------------------------------------
// Small statistics helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it. With fewer than 1 / (1 - q) samples it is the
// maximum.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Two clients call `request(client, k)` (k counts that client's calls)
// from their own threads, closed loop, until `end_ns` and at least
// `min_each` times each; returns every result, client 0's first.
template <typename Request>
auto TwoClients(int64_t end_ns, size_t min_each, Request request) {
  using Answer = decltype(request(0, size_t{0}));
  std::vector<std::vector<Answer>> answers(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      while (answers[c].size() < min_each || NowNs() < end_ns) {
        answers[c].push_back(request(c, answers[c].size()));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  answers[0].insert(answers[0].end(), answers[1].begin(), answers[1].end());
  return answers[0];
}

// ---------------------------------------------------------------------------
// The result line.

class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  void Print() const {
    std::fprintf(stderr, "\n%-28s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "%-28s %18.6f  %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : -1.0);
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up time: a cold start of the program up to its first answer.

// The child side of the bulk set-up probe: build an engine and a request
// runner, answer one one-edge request, then report ready.
int ProbeMain() {
  SolveEngine engine;
  JsonlRequestRunner runner(&engine, JsonlRequestRunner::Defaults());
  JsonlRequestRunner::Outcome outcome;
  const std::string response =
      runner.Run(kProbeLine, 1, JsonlRequestRunner::LineContext(), &outcome);
  if (outcome.disposition != JsonlRequestRunner::Disposition::kSolved) {
    return 1;
  }
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
  return 0;
}

// Spawns `self --probe` and times spawn-to-"ready". Returns -1 on failure.
double ProbeOnce(const std::string& self) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], 1);
  posix_spawn_file_actions_addclose(&actions, pipefd[0]);
  std::string arg0 = self, arg1 = "--probe";
  char* argv[] = {arg0.data(), arg1.data(), nullptr};
  const int64_t t0 = NowNs();
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  double seconds = -1;
  if (rc == 0) {
    char buf[16];
    std::string got;
    ssize_t n;
    while (got.find('\n') == std::string::npos &&
           (n = ::read(pipefd[0], buf, sizeof(buf))) > 0) {
      got.append(buf, static_cast<size_t>(n));
    }
    if (got.rfind("ready", 0) == 0) seconds = Seconds(NowNs() - t0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) seconds = -1;
  }
  ::close(pipefd[0]);
  return seconds;
}

// Appends kSetupRepeats cold-start times to *runs.
void ProbeProcessSetup(const std::string& self, std::vector<double>* runs,
                       Result* result) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double s = ProbeOnce(self);
    result->Count(1, s < 0 ? 1 : 0);
    if (s < 0) {
      result->Fail("set-up probe did not answer");
      return;
    }
    runs->push_back(s);
  }
}

// Appends kSetupRepeats times from starting `pebblejoin serve` to its
// answer to a 1-edge request to *runs.
void ProbeServeSetup(const std::string& cli,
                     const std::vector<std::string>& args,
                     std::vector<double>* runs, Result* result) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t t0 = NowNs();
    ServerProcess server;
    std::string error;
    if (!server.Start(cli, args, &error)) {
      result->Fail("server start: " + error);
      result->Count(1, 1);
      return;
    }
    const std::string response = RoundTrip(server.port(), kProbeLine);
    const int64_t t1 = NowNs();
    bool ok = true;
    if (response.find("\"effective_cost\":1") == std::string::npos) {
      result->Fail("server did not answer the set-up probe: " + response);
      ok = false;
    }
    if (!server.Stop()) {
      result->Fail("server did not drain and exit 0: " + server.log());
      ok = false;
    }
    result->Count(1, ok ? 0 : 1);
    runs->push_back(Seconds(t1 - t0));
  }
}

// ---------------------------------------------------------------------------
// Per-layer output shared by all three workloads.

struct SolverCounters {
  int64_t rungs_attempted = 0, ls_passes = 0, ils_iterations = 0,
          budget_polls = 0, bnb_nodes_expanded = 0,
          hk_subsets_materialized = 0, hk_table_bytes = 0;

  void Add(const SolveStats& s) {
    rungs_attempted += s.rungs_attempted;
    ls_passes += s.ls_passes;
    ils_iterations += s.ils_iterations;
    budget_polls += s.budget_polls;
    bnb_nodes_expanded += s.bnb_nodes_expanded;
    hk_subsets_materialized += s.hk_subsets_materialized;
    hk_table_bytes += s.hk_table_bytes;
  }
  bool operator==(const SolverCounters&) const = default;
};

// One traced pass over a workload's requests.
struct TracedPass {
  LayerTotals layers;
  SolverCounters counters;
};

// The counters that must repeat exactly at one thread. serialize_bytes is
// not among them: the document carries wall-clock fields whose digit count
// varies.
bool SameDeterministicCounts(const TracedPass& a, const TracedPass& b) {
  return a.counters == b.counters &&
         a.layers.parse_alloc_bytes == b.layers.parse_alloc_bytes &&
         a.layers.build_alloc_bytes == b.layers.build_alloc_bytes &&
         a.layers.extract_alloc_bytes == b.layers.extract_alloc_bytes &&
         a.layers.extract_touches == b.layers.extract_touches;
}

// What the serve probe of a trace run measured.
struct ServeLayer {
  // Latency from the due time at the low and high open-loop rates.
  double p50_ms_low = 0, p99_ms_low = 0, p50_ms_high = 0, p99_ms_high = 0;
  double overhead_us_p50 = 0;
  int64_t inflight_max = 0;
  int64_t rejected_lines = 0;
  double lag_ms_max = 0;
};

// Reports every per-layer metric. `passes` are the two traced passes (times
// are their mean); `untraced_ns` is the untraced wall of the same requests.
void AddLayerMetrics(const std::vector<TracedPass>& passes,
                     int64_t untraced_ns, int64_t line_graph_ns,
                     const std::vector<double>& engine_run_us,
                     double allocs_per_line, const ServeLayer& serve,
                     Result* result) {
  const auto mean_us = [&](int64_t LayerTotals::*field) {
    double sum = 0;
    for (const TracedPass& p : passes) sum += Micros(p.layers.*field);
    return sum / static_cast<double>(passes.size());
  };
  const LayerTotals& first = passes.front().layers;
  const SolverCounters& c = passes.front().counters;
  result->Add("io.parse_us", mean_us(&LayerTotals::parse_ns), "us");
  result->Add("io.parse_alloc_bytes", first.parse_alloc_bytes, "bytes");
  result->Add("graph.build_us", mean_us(&LayerTotals::build_ns), "us");
  result->Add("graph.build_alloc_bytes", first.build_alloc_bytes, "bytes");
  result->Add("core.classify_us", mean_us(&LayerTotals::classify_ns), "us");
  result->Add("graph.components_us", mean_us(&LayerTotals::components_ns),
              "us");
  result->Add("graph.extract_us", mean_us(&LayerTotals::extract_ns), "us");
  result->Add("graph.extract_alloc_bytes", first.extract_alloc_bytes, "bytes");
  result->Add("graph.extract_touches", first.extract_touches, "count");
  result->Add("graph.line_graph_us", Micros(line_graph_ns), "us");
  result->Add("solver.solve_us", mean_us(&LayerTotals::solve_ns), "us");
  result->Add("solver.kernel_us", mean_us(&LayerTotals::kernel_ns), "us");
  result->Add("solver.rungs_attempted", c.rungs_attempted, "count");
  result->Add("solver.ls_passes", c.ls_passes, "count");
  result->Add("solver.ils_iterations", c.ils_iterations, "count");
  result->Add("solver.budget_polls", c.budget_polls, "count");
  result->Add("tsp.bnb_nodes_expanded", c.bnb_nodes_expanded, "count");
  result->Add("tsp.hk_subsets_materialized", c.hk_subsets_materialized,
              "count");
  result->Add("tsp.hk_table_bytes", c.hk_table_bytes, "bytes");
  result->Add("pebble.verify_us", mean_us(&LayerTotals::verify_ns), "us");
  result->Add("core.serialize_us", mean_us(&LayerTotals::serialize_ns), "us");
  result->Add("core.serialize_bytes", first.serialize_bytes, "bytes");
  result->Add("engine.run_us_p50", Median(engine_run_us), "us");
  result->Add("engine.run_us_p99", Percentile(engine_run_us, 0.99), "us");
  result->Add("engine.allocs_per_line", allocs_per_line, "count");
  result->Add("serve.p50_ms_500rps", serve.p50_ms_low, "ms");
  result->Add("serve.p99_ms_500rps", serve.p99_ms_low, "ms");
  result->Add("serve.p50_ms_1000rps", serve.p50_ms_high, "ms");
  result->Add("serve.p99_ms_1000rps", serve.p99_ms_high, "ms");
  result->Add("serve.overhead_us_p50", serve.overhead_us_p50, "us");
  result->Add("serve.inflight_max", static_cast<double>(serve.inflight_max),
              "count");
  result->Add("serve.rejected_lines", static_cast<double>(serve.rejected_lines),
              "count");
  result->Add("loadgen.lag_ms_max", serve.lag_ms_max, "ms");

  const double traced_wall = mean_us(&LayerTotals::wall_ns);
  double coverage = 1;
  for (const TracedPass& p : passes) {
    coverage = std::min(coverage, static_cast<double>(p.layers.SpanSumNs()) /
                                      static_cast<double>(p.layers.wall_ns));
  }
  result->Add("trace.overhead_us", traced_wall - Micros(untraced_ns), "us");
  result->Add("trace.span_coverage", coverage, "share");
  if (coverage < 0.95) {
    result->Fail("layer spans cover " + std::to_string(coverage) +
                 " of the traced wall (< 0.95)");
  }
  if (passes.size() == 2 && !SameDeterministicCounts(passes[0], passes[1])) {
    const LayerTotals& a = passes[0].layers;
    const LayerTotals& b = passes[1].layers;
    result->Fail(
        "work or allocation counters differ between two traced passes: "
        "parse " + std::to_string(a.parse_alloc_bytes) + "/" +
        std::to_string(b.parse_alloc_bytes) + " build " +
        std::to_string(a.build_alloc_bytes) + "/" +
        std::to_string(b.build_alloc_bytes) + " extract " +
        std::to_string(a.extract_alloc_bytes) + "/" +
        std::to_string(b.extract_alloc_bytes) + " touches " +
        std::to_string(a.extract_touches) + "/" +
        std::to_string(b.extract_touches) + " solver counters " +
        (passes[0].counters == passes[1].counters ? "equal" : "differ"));
  }
}

// ---------------------------------------------------------------------------
// Bulk workloads.

struct BulkWorkload {
  GraphText graph;
  RequestSpec spec;
  std::string jsonl_options;  // the same options as JSONL keys
  // The output oracle: is π acceptable for this m?
  bool (*oracle)(int64_t m, int64_t pi);
  const char* oracle_text;
};

BulkWorkload MakeBulk(const std::string& name, uint64_t seed) {
  BulkWorkload w;
  if (name == "equijoin-bulk") {
    w.graph = EquijoinBulk(seed, kEquijoinComponents);
    w.spec.predicate = PredicateClass::kEquality;
    w.jsonl_options = "\"predicate\": \"equijoin\"";
    // Theorem 3.2 / 4.1: every equijoin graph has a perfect scheme.
    w.oracle = [](int64_t m, int64_t pi) { return pi == m; };
    w.oracle_text = "pi == m";
  } else {
    // Every vertex has degree 4, so the line graph has the same degree
    // sequence for every seed. With degrees that vary, the peak heap of
    // one request jumped between two values (6.9 and 8.8 MB) from seed to
    // seed as the line graph's adjacency lists grew.
    w.graph = RegularBipartite(seed, kConnectedSide, kConnectedDegree);
    w.spec.solver = SolverChoice::kDfsTree;
    w.jsonl_options = "\"solver\": \"dfs-tree\"";
    // Theorem 3.1 on a connected graph.
    w.oracle = [](int64_t m, int64_t pi) { return pi <= m + (m - 1) / 4; };
    w.oracle_text = "pi <= m + floor((m-1)/4)";
  }
  return w;
}

struct BulkAnswer {
  int64_t wall_ns = 0;
  int64_t pi = 0;
  std::string json;
};

// The end-to-end bulk request: graph text -> parse -> engine -> JSON.
BulkAnswer BulkRequest(SolveEngine* engine, const BulkWorkload& w) {
  BulkAnswer answer;
  const int64_t t0 = NowNs();
  std::string error;
  const std::optional<BipartiteGraph> graph =
      ParseBipartiteGraph(w.graph.text, &error);
  if (!graph.has_value()) {
    answer.pi = -1;
    return answer;
  }
  SolveRequest request;
  request.graph = &*graph;
  request.predicate = w.spec.predicate;
  request.solver = w.spec.solver;
  const SolveResult solved = engine->Solve(request);
  answer.json = AnalysisJson(solved.analysis);
  answer.wall_ns = NowNs() - t0;
  answer.pi = solved.analysis.solution.effective_cost;
  return answer;
}

// Checks one bulk answer against the oracle and the first answer's
// normalized output; returns false when it fails.
bool CheckBulk(const BulkWorkload& w, const BulkAnswer& a,
               const std::string& reference_norm, Result* result) {
  if (a.pi < 0) {
    result->Fail("bulk input did not parse");
    return false;
  }
  if (!w.oracle(w.graph.m, a.pi)) {
    result->Fail(std::string("oracle ") + w.oracle_text + " failed: m=" +
                 std::to_string(w.graph.m) + " pi=" + std::to_string(a.pi));
    return false;
  }
  if (!reference_norm.empty() && NormalizeTimings(a.json) != reference_norm) {
    result->Fail("bulk output differs between two requests");
    return false;
  }
  return true;
}

void RunBulkEndToEnd(const Args& args, const BulkWorkload& w,
                     Result* result) {
  std::vector<double> setup_runs;
  ProbeProcessSetup(args.self, &setup_runs, result);
  SolveEngine engine;
  int64_t pi_sum = 0, m_sum = 0;
  std::string reference;
  const auto check = [&](const BulkAnswer& a) {
    const bool ok = CheckBulk(w, a, reference, result);
    if (reference.empty()) reference = NormalizeTimings(a.json);
    result->Count(1, ok ? 0 : 1);
    pi_sum += a.pi;
    m_sum += w.graph.m;
  };

  // A first, untimed request with the live heap tracked: its peak net
  // growth is the memory the request needs, exactly, where peak RSS would
  // move by whole megabytes with the allocator's mmap threshold. Counting
  // slows the request, so it is not among the timed ones.
  SetAllocCounting(true);
  ResetHeapPeak();
  check(BulkRequest(&engine, w));
  const double peak_heap_mb = static_cast<double>(PeakHeapGrowth()) / (1 << 20);
  SetAllocCounting(false);

  // Low: one request at a time, closed loop.
  std::vector<double> low_ms;
  const int64_t low_end =
      NowNs() + static_cast<int64_t>(kBulkLowShare * args.seconds * 1e9);
  while (low_ms.size() < kBulkMinLow || NowNs() < low_end) {
    const BulkAnswer a = BulkRequest(&engine, w);
    check(a);
    low_ms.push_back(Millis(a.wall_ns));
  }
  ProbeProcessSetup(args.self, &setup_runs, result);

  // High: two requests in flight on the same engine, closed loop.
  const int64_t high_start = NowNs();
  const std::vector<BulkAnswer> answers = TwoClients(
      high_start + static_cast<int64_t>(kBulkHighShare * args.seconds * 1e9),
      2, [&](int, size_t) { return BulkRequest(&engine, w); });
  const double high_s = Seconds(NowNs() - high_start);
  std::vector<double> high_ms;
  for (const BulkAnswer& a : answers) {
    check(a);
    high_ms.push_back(Millis(a.wall_ns));
  }
  ProbeProcessSetup(args.self, &setup_runs, result);

  result->Add("setup_s", Median(setup_runs), "s");
  result->Add("edges_per_s",
              static_cast<double>(w.graph.m) / (Median(low_ms) / 1e3),
              "edges/s");
  result->Add("peak_heap_mb", peak_heap_mb, "MB");
  result->Add("pi_ratio",
              static_cast<double>(pi_sum) / static_cast<double>(m_sum),
              "ratio");
  result->Add("ok_share",
              1.0 - static_cast<double>(result->failed()) /
                        static_cast<double>(result->attempted()),
              "share");
  result->Add("p50_ms_low", Median(low_ms), "ms");
  result->Add("p99_ms_low", Percentile(low_ms, 0.99), "ms");
  result->Add("p50_ms_high", Median(high_ms), "ms");
  result->Add("p99_ms_high", Percentile(high_ms, 0.99), "ms");
  result->Add("max_rps_p99", static_cast<double>(high_ms.size()) / high_s,
              "req/s");
}

// Sends one request line through a fresh `pebblejoin serve` as a
// one-request open-loop phase; returns the record and fills the serve
// layer metrics except the overhead.
RequestRecord ServeOneLine(const Args& args, const std::string& line,
                           ServeLayer* serve, Result* result) {
  ServerProcess server;
  std::string error;
  if (!server.Start(args.cli,
                    {"--threads", "1", "--request-deadline-ms", "-1",
                     "--max-line-bytes", std::to_string(kBulkMaxLineBytes)},
                    &error)) {
    result->Fail("server start: " + error);
    return RequestRecord();
  }
  OpenLoopConfig config;
  config.rate = 1;
  config.seconds = 1;
  config.connections = 1;
  config.drain_timeout_s = 120;
  config.poll_metrics = true;
  const OpenLoopResult run = RunOpenLoop(server.port(), {line}, {0}, 0, config);
  if (!server.Stop()) {
    result->Fail("server did not drain and exit 0: " + server.log());
  }
  serve->inflight_max = run.inflight_max;
  serve->lag_ms_max = Millis(run.lag_ns_max);
  return run.records.front();
}

void RunBulkTraced(const Args& args, const BulkWorkload& w, Result* result) {
  SolveEngine engine;
  const BulkAnswer untraced = BulkRequest(&engine, w);
  result->Count(1, CheckBulk(w, untraced, "", result) ? 0 : 1);
  const std::string reference = NormalizeTimings(untraced.json);

  // Two traced passes: their outputs must equal the untraced one, and their
  // work and allocation counters must repeat exactly.
  const TracedPipeline pipeline(/*deadline_cap_ms=*/-1);
  std::vector<TracedPass> passes(2);
  SetAllocCounting(true);
  for (TracedPass& pass : passes) {
    JoinAnalysis analysis;
    bool ok = false;
    const std::string json =
        pipeline.RunText(w.graph.text, w.spec, &pass.layers, &analysis, &ok);
    pass.counters.Add(analysis.stats);
    result->Count(1, 0);
    if (!ok || NormalizeTimings(json) != reference) {
      result->Fail("traced output differs from SolveEngine::Solve");
      result->Count(0, 1);
    }
  }

  // The engine behind the JSONL surfaces, in-process, on the same request
  // as one JSONL line, twice: allocations are counted on the first run and
  // the second, with counting off, is the one timed. Then the same line
  // through `pebblejoin serve`.
  const std::string line = "{\"graph\": \"" + JsonEscape(w.graph.text) +
                           "\", " + w.jsonl_options + "}";
  JsonlRequestRunner::Defaults defaults;
  defaults.max_line_bytes = kBulkMaxLineBytes;
  JsonlRequestRunner runner(&engine, defaults);
  double allocs = 0;
  int64_t run_ns = 0;
  for (int run = 0; run < 2; ++run) {
    JsonlRequestRunner::Outcome outcome;
    const AllocSnapshot a0 = ReadAllocCounts();
    const int64_t t0 = NowNs();
    const std::string run_response =
        runner.Run(line, 1, JsonlRequestRunner::LineContext(), &outcome);
    run_ns = NowNs() - t0;
    if (run == 0) {
      allocs = static_cast<double>((ReadAllocCounts() - a0).allocs);
      SetAllocCounting(false);
    }
    result->Count(1, 0);
    if (outcome.disposition != JsonlRequestRunner::Disposition::kSolved ||
        NormalizeTimings(run_response) != reference) {
      result->Fail("JsonlRequestRunner output differs from SolveEngine::Solve");
      result->Count(0, 1);
    }
  }

  // graph.line_graph: the line graph of the whole request graph, built by
  // its own call (the kernels build theirs internally).
  std::string error;
  Graph flat = ParseBipartiteGraph(w.graph.text, &error)->ToGraph();
  flat.BuildCsr();
  const int64_t lg0 = NowNs();
  const Graph line_graph = BuildLineGraph(flat);
  const int64_t line_graph_ns = NowNs() - lg0;

  ServeLayer serve;
  const RequestRecord served = ServeOneLine(args, line, &serve, result);
  result->Count(1, 0);
  if (served.received_ns == 0 ||
      NormalizeTimings(served.response) != reference) {
    result->Fail("serve response differs from the in-process runner");
    result->Count(0, 1);
    if (served.response.rfind("{\"line\":", 0) == 0) serve.rejected_lines = 1;
  } else {
    serve.overhead_us_p50 =
        Micros(served.received_ns - served.sent_ns) - Micros(run_ns);
    // One request: its latency is every percentile.
    serve.p50_ms_low = serve.p99_ms_low = serve.p50_ms_high =
        serve.p99_ms_high = Millis(served.received_ns - served.due_ns);
  }
  AddLayerMetrics(passes, untraced.wall_ns, line_graph_ns,
                  {Micros(run_ns)}, allocs, serve, result);
}

// ---------------------------------------------------------------------------
// serve-mix.

struct ServeCorpus {
  std::vector<std::string> lines;
  std::vector<int64_t> m;
  std::vector<int64_t> pi;              // from the in-process reference
  std::vector<std::string> expected;    // normalized reference responses
  std::vector<double> run_us;           // in-process JsonlRequestRunner::Run
  std::vector<double> low_ms;           // every line of every warm pass
  std::vector<double> warm_pass_ns;     // every warm pass
  int64_t allocs = 0;                   // over one warm in-process pass
  std::vector<std::string> shape;       // CorpusLine::shape
  std::vector<int> order;               // the schedule's line order
  int64_t m_sum = 0;
  int64_t untraced_pass_ns = 0;
  int64_t peak_heap_bytes = 0;          // max over lines, reference pass
};

// The order one pass of the schedule sends the corpus in: the heavy lines
// at evenly spaced positions, everything else shuffled around them. Even
// spacing keeps two heavy lines from landing back to back in some seeds
// and not in others, which would move p99 by a whole heavy solve.
std::vector<int> ScheduleOrder(const ServeCorpus& corpus, uint64_t seed) {
  std::vector<int> heavy, rest;
  for (size_t i = 0; i < corpus.lines.size(); ++i) {
    (corpus.shape[i].rfind("heavy:", 0) == 0 ? heavy : rest)
        .push_back(static_cast<int>(i));
  }
  Rng rng(seed ^ 0x5EEDu);
  rng.Shuffle(&heavy);
  rng.Shuffle(&rest);
  const size_t n = corpus.lines.size();
  std::vector<int> order(n, -1);
  for (size_t k = 0; k < heavy.size(); ++k) {
    order[k * n / heavy.size()] = heavy[k];
  }
  size_t next = 0;
  for (int& slot : order) {
    if (slot < 0) slot = rest[next++];
  }
  return order;
}

// An engine and a runner with the same JSONL defaults the server uses.
struct InProcessServer {
  InProcessServer() : runner(&engine, Defaults()) {}

  static JsonlRequestRunner::Defaults Defaults() {
    JsonlRequestRunner::Defaults defaults;
    defaults.deadline_cap_ms = kServeDeadlineCapMs;
    defaults.max_line_bytes = kServeMaxLineBytes;
    return defaults;
  }

  SolveEngine engine;
  JsonlRequestRunner runner;
};

// One warm in-process pass over the corpus: every answer is checked
// against the reference pass and counted, every line's wall goes into
// corpus->low_ms and the pass's wall into corpus->warm_pass_ns. When given,
// `line_us` and `line_allocs` receive each line's wall and allocation
// count. Returns the pass's wall in ns.
int64_t WarmPass(const JsonlRequestRunner& runner, ServeCorpus* corpus,
                 std::vector<double>* line_us,
                 std::vector<int64_t>* line_allocs, Result* result) {
  const size_t n = corpus->lines.size();
  int64_t missed = 0;
  const int64_t pass_start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    JsonlRequestRunner::Outcome outcome;
    const AllocSnapshot a0 = ReadAllocCounts();
    const int64_t t0 = NowNs();
    const std::string response =
        runner.Run(corpus->lines[i], static_cast<int64_t>(i) + 1,
                   JsonlRequestRunner::LineContext(), &outcome);
    const int64_t t1 = NowNs();
    if (line_allocs != nullptr) {
      (*line_allocs)[i] = (ReadAllocCounts() - a0).allocs;
    }
    if (line_us != nullptr) (*line_us)[i] = Micros(t1 - t0);
    corpus->low_ms.push_back(Millis(t1 - t0));
    if (NormalizeTimings(response) != corpus->expected[i]) {
      result->Fail("in-process output of corpus line " + std::to_string(i + 1) +
                   " differs between passes");
      ++missed;
    }
  }
  const int64_t pass_ns = NowNs() - pass_start;
  corpus->warm_pass_ns.push_back(static_cast<double>(pass_ns));
  result->Count(static_cast<int64_t>(n), missed);
  return pass_ns;
}

// Builds the corpus and answers it in-process through
// JsonlRequestRunner::Run with the same defaults the server uses: a
// reference pass, then kWarmPasses warm ones. The reference pass's answers
// must all solve, and their normalized form is the oracle every later
// answer is checked against. It also pays the engine's lazy set-up (metric
// cells are created on first publish), so the timings and allocation
// counts come from the warm passes. With `count_allocs`, warm passes 1 and
// 2 count allocations and their per-line counts must be equal; the
// per-line times come from kTimedPass, which runs with counting off.
ServeCorpus MakeServeCorpus(const Args& args, const JsonlRequestRunner& runner,
                            bool count_allocs, Result* result) {
  ServeCorpus corpus;
  for (const CorpusLine& l : ServeMixCorpus(args.seed, kCorpusLines)) {
    corpus.lines.push_back(l.json);
    corpus.m.push_back(l.m);
    corpus.shape.push_back(l.shape);
    corpus.m_sum += l.m;
  }
  const size_t n = corpus.lines.size();

  SetAllocCounting(true);
  int64_t missed = 0;
  for (size_t i = 0; i < n; ++i) {
    JsonlRequestRunner::Outcome outcome;
    ResetHeapPeak();
    const std::string response =
        runner.Run(corpus.lines[i], static_cast<int64_t>(i) + 1,
                   JsonlRequestRunner::LineContext(), &outcome);
    corpus.peak_heap_bytes = std::max(corpus.peak_heap_bytes, PeakHeapGrowth());
    corpus.expected.push_back(NormalizeTimings(response));
    std::string error;
    const std::optional<JsonValue> doc = JsonValue::Parse(response, &error);
    const JsonValue* solution = doc ? doc->Find("solution") : nullptr;
    const JsonValue* cost =
        solution ? solution->Find("effective_cost") : nullptr;
    corpus.pi.push_back(cost ? cost->int64_value().value_or(-1) : -1);
    if (outcome.disposition != JsonlRequestRunner::Disposition::kSolved ||
        corpus.pi.back() < 0) {
      result->Fail("corpus line " + std::to_string(i + 1) +
                   " did not solve in-process: " + response);
      ++missed;
    }
  }
  SetAllocCounting(false);
  result->Count(static_cast<int64_t>(n), missed);

  corpus.run_us.assign(n, 0);
  std::vector<int64_t> counted_allocs;  // per line, warm pass 1
  for (int p = 1; p <= kWarmPasses; ++p) {
    const bool counted = count_allocs && (p == 1 || p == 2);
    std::vector<int64_t> line_allocs(n, 0);
    SetAllocCounting(counted);
    const int64_t pass_ns =
        WarmPass(runner, &corpus, p == kTimedPass ? &corpus.run_us : nullptr,
                 counted ? &line_allocs : nullptr, result);
    SetAllocCounting(false);
    if (p == kTimedPass) corpus.untraced_pass_ns = pass_ns;
    if (!counted) continue;
    if (p == 1) {
      counted_allocs = line_allocs;
    } else if (line_allocs != counted_allocs) {
      result->Fail("per-line allocation counts differ between warm passes");
    }
  }
  for (int64_t a : counted_allocs) corpus.allocs += a;
  corpus.order = ScheduleOrder(corpus, args.seed);
  return corpus;
}

std::vector<std::string> ServeArgs() {
  return {"--threads", std::to_string(kServeThreads),
          "--max-inflight", "100000",
          "--per-conn-inflight", "100000",
          "--request-deadline-ms", std::to_string(kServeDeadlineCapMs),
          "--max-line-bytes", std::to_string(kServeMaxLineBytes)};
}

// What one open-loop phase showed.
struct PhaseStats {
  double rate = 0;
  int64_t attempted = 0;
  int64_t failed = 0;     // no response, error or refused, or wrong answer
  int64_t refused = 0;    // error records: rejected or otherwise
  int64_t wrong = 0;      // a solved answer that differs from the oracle
  std::vector<double> latency_ms;  // from the due time; +inf when missing
  double p50_ms = 0, p99_ms = 0;
  double drain_ms = 0;    // last response minus last due time
  double lag_ms_max = 0;
  int64_t inflight_max = -1;
  std::vector<double> socket_minus_engine_us;  // per answered request

  // How far past the limit the phase ran: the worse of p99 and the drain
  // after the window (a backlog that grew during the phase is still being
  // worked off), over the p99 limit. Generator lateness needs no term of
  // its own: latency counts from the due time, so it is already in p99.
  // The rate holds when this is <= 1 and nothing failed.
  double Score() const { return std::max(p99_ms, drain_ms) / kP99LimitMs; }
  bool Holds() const { return failed == 0 && Score() <= 1; }
};

// Runs whole passes over the corpus at `rate`, as many as fit in about
// `seconds` (at least one), so every phase has the same mix of shapes.
PhaseStats RunPhase(int port, const ServeCorpus& corpus, size_t* cursor,
                    double rate, double seconds, bool poll_metrics) {
  const double lines = static_cast<double>(corpus.lines.size());
  const double passes = std::max(1.0, std::round(seconds * rate / lines));
  OpenLoopConfig config;
  config.rate = rate;
  config.seconds = passes * lines / rate;
  config.connections = kServeConnections;
  config.poll_metrics = poll_metrics;
  const OpenLoopResult run =
      RunOpenLoop(port, corpus.lines, corpus.order, *cursor, config);
  *cursor += run.records.size();
  PhaseStats s;
  s.rate = rate;
  s.lag_ms_max = Millis(run.lag_ns_max);
  s.inflight_max = run.inflight_max;
  s.drain_ms = Millis(std::max<int64_t>(0, run.last_response_ns -
                                               run.window_end_ns));
  for (const RequestRecord& r : run.records) {
    ++s.attempted;
    if (r.received_ns == 0) {
      ++s.failed;
      s.latency_ms.push_back(std::numeric_limits<double>::infinity());
      s.drain_ms = std::numeric_limits<double>::infinity();
      continue;
    }
    s.latency_ms.push_back(Millis(r.received_ns - r.due_ns));
    if (r.response.rfind("{\"line\":", 0) == 0) {
      ++s.failed;
      ++s.refused;
      continue;
    }
    if (NormalizeTimings(r.response) != corpus.expected[r.line]) {
      ++s.failed;
      ++s.wrong;
      continue;
    }
    s.socket_minus_engine_us.push_back(Micros(r.received_ns - r.sent_ns) -
                                       corpus.run_us[r.line]);
  }
  s.p50_ms = Median(s.latency_ms);
  s.p99_ms = Percentile(s.latency_ms, 0.99);
  std::fprintf(stderr,
               "  rate %7.0f/s: n=%lld p50=%.3fms p99=%.3fms drain=%.3fms "
               "lag=%.3fms failed=%lld score=%.3f\n",
               rate, static_cast<long long>(s.attempted), s.p50_ms, s.p99_ms,
               s.drain_ms, s.lag_ms_max, static_cast<long long>(s.failed),
               s.Score());
  return s;
}

// Folds the blocks of one rate into one PhaseStats. Counts and the drain
// are pooled; p50 and p99 are the medians of the per-block values, so a
// few seconds in which the machine runs slow move them less than they
// would move one long phase.
PhaseStats MergeBlocks(const std::vector<PhaseStats>& blocks) {
  PhaseStats merged;
  merged.rate = blocks.front().rate;
  std::vector<double> p50, p99;
  for (const PhaseStats& b : blocks) {
    merged.attempted += b.attempted;
    merged.failed += b.failed;
    merged.refused += b.refused;
    merged.wrong += b.wrong;
    merged.drain_ms = std::max(merged.drain_ms, b.drain_ms);
    merged.lag_ms_max = std::max(merged.lag_ms_max, b.lag_ms_max);
    merged.inflight_max = std::max(merged.inflight_max, b.inflight_max);
    merged.socket_minus_engine_us.insert(merged.socket_minus_engine_us.end(),
                                         b.socket_minus_engine_us.begin(),
                                         b.socket_minus_engine_us.end());
    p50.push_back(b.p50_ms);
    p99.push_back(b.p99_ms);
  }
  merged.p50_ms = Median(p50);
  merged.p99_ms = Median(p99);
  return merged;
}

// The low and high rates, as alternating one-pass blocks over about 40% of
// `seconds`.
std::pair<PhaseStats, PhaseStats> RunLowHigh(int port,
                                             const ServeCorpus& corpus,
                                             double seconds,
                                             bool poll_metrics) {
  const double lines = static_cast<double>(corpus.lines.size());
  const double round_s = lines / kLowRps + lines / kHighRps;
  const int rounds =
      std::max(2, static_cast<int>(std::lround(0.4 * seconds / round_s)));
  std::vector<PhaseStats> low, high;
  size_t cursor = 0;
  for (int i = 0; i < rounds; ++i) {
    low.push_back(RunPhase(port, corpus, &cursor, kLowRps, 0, poll_metrics));
    high.push_back(RunPhase(port, corpus, &cursor, kHighRps, 0, poll_metrics));
  }
  return {MergeBlocks(low), MergeBlocks(high)};
}

// The rate at which the score reaches 1, interpolated on log(score) over
// log(rate) between a rate that held and one that did not.
double InterpolateLimit(const PhaseStats& held, const PhaseStats& failed) {
  const double s0 = std::log(std::max(held.Score(), 1e-3));
  const double s1 = std::log(std::min(std::max(failed.Score(), 1.0), 1e3));
  if (s1 <= s0) return held.rate;
  const double r0 = std::log(held.rate);
  const double r1 = std::log(failed.rate);
  return std::exp(r0 + (r1 - r0) * (0 - s0) / (s1 - s0));
}

// Warm-up: one unmeasured pass at the high rate, so the server's pool,
// allocator and the machine's cores are busy before the first timed phase.
void WarmUp(int port, const ServeCorpus& corpus) {
  size_t cursor = 0;
  RunPhase(port, corpus, &cursor, kHighRps, 0, false);
}

// Two clients answer the corpus through one shared runner, closed loop,
// one pass each; the second client starts half way through the corpus.
// Returns every line's wall in ms; answers that differ from the reference
// count as failed.
std::vector<double> RunTwoInFlight(const JsonlRequestRunner& runner,
                                   const ServeCorpus& corpus, Result* result) {
  const size_t n = corpus.lines.size();
  const auto answers = TwoClients(
      /*end_ns=*/0, n,
      [&](int client, size_t k) {
        const size_t i = (k + client * n / 2) % n;
        JsonlRequestRunner::Outcome outcome;
        const int64_t t0 = NowNs();
        const std::string response =
            runner.Run(corpus.lines[i], static_cast<int64_t>(i) + 1,
                       JsonlRequestRunner::LineContext(), &outcome);
        const double wall_ms = Millis(NowNs() - t0);
        return std::make_pair(wall_ms,
                              NormalizeTimings(response) == corpus.expected[i]);
      });
  std::vector<double> wall_ms;
  int64_t wrong = 0;
  for (const auto& [ms, ok] : answers) {
    wall_ms.push_back(ms);
    if (!ok) ++wrong;
  }
  result->Count(static_cast<int64_t>(answers.size()), wrong);
  if (wrong > 0) result->Fail("in-process answers differ under load");
  return wall_ms;
}

// The highest open-loop rate `pebblejoin serve` sustains under the p99
// limit: doubling from the high rate until a rate fails, then bisecting in
// log rate, kSearchSteps phases in all, with `after_step` run after each.
double SearchMaxRate(int port, const ServeCorpus& corpus, double seconds,
                     const std::function<void()>& after_step,
                     Result* result) {
  std::optional<PhaseStats> held, failed;
  double rate = kHighRps;
  size_t cursor = 0;
  for (int i = 0; i < kSearchSteps; ++i) {
    PhaseStats step = RunPhase(port, corpus, &cursor, rate,
                               seconds / kSearchSteps, false);
    result->Count(step.attempted, step.failed);
    if (step.wrong > 0) result->Fail("served answers differ from the oracle");
    after_step();
    if (step.Holds()) {
      held = std::move(step);
    } else {
      failed = std::move(step);
    }
    if (!failed) {
      rate = 2 * held->rate;
    } else if (!held) {
      rate = failed->rate / 2;
    } else {
      rate = std::sqrt(held->rate * failed->rate);
    }
  }
  if (held && failed) return InterpolateLimit(*held, *failed);
  if (held) return held->rate;
  return failed->rate / failed->Score();
}

void RunServeEndToEnd(const Args& args, Result* result) {
  std::vector<double> setup_runs;
  ProbeServeSetup(args.cli, ServeArgs(), &setup_runs, result);
  const InProcessServer in_process;
  ServeCorpus corpus =
      MakeServeCorpus(args, in_process.runner, /*count_allocs=*/false, result);
  ProbeServeSetup(args.cli, ServeArgs(), &setup_runs, result);

  // After every search step: one more warm pass (low) and one pass per
  // client with two clients on one engine (high), so that the in-process
  // samples span the whole run.
  std::vector<double> high_ms;
  const auto in_process_block = [&] {
    WarmPass(in_process.runner, &corpus, nullptr, nullptr, result);
    const std::vector<double> block =
        RunTwoInFlight(in_process.runner, corpus, result);
    high_ms.insert(high_ms.end(), block.begin(), block.end());
  };
  ServerProcess server;
  std::string error;
  double max_rps = 0;
  if (!server.Start(args.cli, ServeArgs(), &error)) {
    result->Fail("server start: " + error);
    in_process_block();
  } else {
    WarmUp(server.port(), corpus);
    max_rps = SearchMaxRate(server.port(), corpus, 0.4 * args.seconds,
                            in_process_block, result);
    if (!server.Stop()) {
      result->Fail("server did not drain and exit 0: " + server.log());
    }
  }
  ProbeServeSetup(args.cli, ServeArgs(), &setup_runs, result);

  int64_t pi_sum = 0;
  for (int64_t pi : corpus.pi) pi_sum += pi;
  result->Add("setup_s", Median(setup_runs), "s");
  result->Add(
      "edges_per_s",
      static_cast<double>(corpus.m_sum) / (Median(corpus.warm_pass_ns) / 1e9),
      "edges/s");
  result->Add("peak_heap_mb",
              static_cast<double>(corpus.peak_heap_bytes) / (1 << 20), "MB");
  result->Add("pi_ratio",
              static_cast<double>(pi_sum) / static_cast<double>(corpus.m_sum),
              "ratio");
  result->Add("ok_share",
              1.0 - static_cast<double>(result->failed()) /
                        static_cast<double>(result->attempted()),
              "share");
  result->Add("p50_ms_low", Median(corpus.low_ms), "ms");
  result->Add("p99_ms_low", Percentile(corpus.low_ms, 0.99), "ms");
  result->Add("p50_ms_high", Median(high_ms), "ms");
  result->Add("p99_ms_high", Percentile(high_ms, 0.99), "ms");
  result->Add("max_rps_p99", max_rps, "req/s");
}

void RunServeTraced(const Args& args, Result* result) {
  const InProcessServer in_process;
  ServeCorpus corpus =
      MakeServeCorpus(args, in_process.runner, /*count_allocs=*/true, result);
  const TracedPipeline pipeline(kServeDeadlineCapMs);
  std::vector<TracedPass> passes(2);
  SetAllocCounting(true);
  for (TracedPass& pass : passes) {
    for (size_t i = 0; i < corpus.lines.size(); ++i) {
      JoinAnalysis analysis;
      bool ok = false;
      const std::string json =
          pipeline.RunJsonl(corpus.lines[i], &pass.layers, &analysis, &ok);
      pass.counters.Add(analysis.stats);
      result->Count(1, 0);
      if (!ok || NormalizeTimings(json) != corpus.expected[i]) {
        result->Fail("traced output of corpus line " + std::to_string(i + 1) +
                     " differs from JsonlRequestRunner::Run");
        result->Count(0, 1);
      }
    }
  }
  SetAllocCounting(false);

  int64_t line_graph_ns = 0;
  for (const std::string& line : corpus.lines) {
    std::string error;
    const std::optional<JsonValue> doc = JsonValue::Parse(line, &error);
    Graph flat =
        ParseBipartiteGraph(doc->Find("graph")->string_value(), &error)
            ->ToGraph();
    flat.BuildCsr();
    const int64_t t0 = NowNs();
    const Graph line_graph = BuildLineGraph(flat);
    line_graph_ns += NowNs() - t0;
  }

  ServerProcess server;
  std::string error;
  ServeLayer serve;
  if (!server.Start(args.cli, ServeArgs(), &error)) {
    result->Fail("server start: " + error);
  } else {
    WarmUp(server.port(), corpus);
    const auto [low, high] =
        RunLowHigh(server.port(), corpus, args.seconds, true);
    if (!server.Stop()) {
      result->Fail("server did not drain and exit 0: " + server.log());
    }
    for (const PhaseStats* p : {&low, &high}) {
      result->Count(p->attempted, p->failed);
      if (p->wrong > 0) result->Fail("served answers differ from the oracle");
    }
    serve.p50_ms_low = low.p50_ms;
    serve.p99_ms_low = low.p99_ms;
    serve.p50_ms_high = high.p50_ms;
    serve.p99_ms_high = high.p99_ms;
    serve.overhead_us_p50 = Median(low.socket_minus_engine_us);
    serve.inflight_max = std::max(low.inflight_max, high.inflight_max);
    serve.rejected_lines = low.refused + high.refused;
    serve.lag_ms_max = std::max(low.lag_ms_max, high.lag_ms_max);
  }
  AddLayerMetrics(passes, corpus.untraced_pass_ns, line_graph_ns, corpus.run_us,
                  static_cast<double>(corpus.allocs) /
                      static_cast<double>(corpus.lines.size()),
                  serve, result);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pjbench --workload "
               "equijoin-bulk|connected-bulk|serve-mix --seed N --seconds S "
               "--trace 0|1 --cli PATH\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  args.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe") return ProbeMain();
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.cli.empty() || ::access(args.cli.c_str(), X_OK) != 0) {
    return Usage("--cli must name the pebblejoin binary");
  }
  ::signal(SIGPIPE, SIG_IGN);
  Result result;
  std::fprintf(stderr, "workload %s seed %llu seconds %.1f trace %d\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  if (args.workload == "equijoin-bulk" || args.workload == "connected-bulk") {
    const BulkWorkload w = MakeBulk(args.workload, args.seed);
    std::fprintf(stderr, "m = %lld\n", static_cast<long long>(w.graph.m));
    if (args.trace) {
      RunBulkTraced(args, w, &result);
    } else {
      RunBulkEndToEnd(args, w, &result);
    }
  } else if (args.workload == "serve-mix") {
    if (args.trace) {
      RunServeTraced(args, &result);
    } else {
      RunServeEndToEnd(args, &result);
    }
  } else {
    return Usage("unknown workload");
  }
  result.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
