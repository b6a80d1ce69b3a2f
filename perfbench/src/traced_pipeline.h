// The traced request path: one request driven through the public function
// of each layer, from the benchmark's own code, with a span and an
// allocation delta around every call. It replicates SolveEngine::Solve at
// one thread, stage by stage, so its output must equal the engine's
// byte for byte once timing fields are normalized; the benchmark checks
// that on every traced request.
//
// Layers and the calls they time:
//   io.parse        ParseBipartiteGraph (+ JsonValue::Parse for JSONL lines)
//   graph.build     BipartiteGraph::ToGraph + Graph::BuildCsr
//   core.classify   ClassifyJoinGraph + ExtractGraphFeatures
//   graph.components FindComponents
//   graph.extract   ExtractComponent, once per component
//   solver.solve    the per-component solve loop minus extraction; it
//                   contains solver.kernel, the primary's PebbleWithOutcome
//   pebble.verify   ComponentPebbler::TryVerifyAndCost
//   core.serialize  AnalysisJson
// The top-level spans (all but solver.kernel) are disjoint, so their sum
// over the request wall is the trace's coverage.

#ifndef PERFBENCH_TRACED_PIPELINE_H_
#define PERFBENCH_TRACED_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "engine/solve_engine.h"

namespace perfbench {

// Nanoseconds on the steady clock.
int64_t NowNs();

// Time in each layer, in ns, and its work counters, summed over the
// requests of one traced pass.
struct LayerTotals {
  int64_t parse_ns = 0;
  int64_t parse_alloc_bytes = 0;
  int64_t build_ns = 0;
  int64_t build_alloc_bytes = 0;
  int64_t classify_ns = 0;
  int64_t components_ns = 0;
  int64_t extract_ns = 0;
  int64_t extract_alloc_bytes = 0;
  int64_t extract_touches = 0;  // Σ (|V_c| + |E_c|) over extracted components
  int64_t solve_ns = 0;
  int64_t kernel_ns = 0;
  int64_t verify_ns = 0;
  int64_t serialize_ns = 0;
  int64_t serialize_bytes = 0;
  int64_t wall_ns = 0;  // whole request, first span start to last span end

  // Sum of the disjoint top-level spans.
  int64_t SpanSumNs() const;
};

// The request options the benchmark's workloads use.
struct RequestSpec {
  pebblejoin::PredicateClass predicate = pebblejoin::PredicateClass::kGeneral;
  std::optional<pebblejoin::SolverChoice> solver;
  std::optional<pebblejoin::SolveBudget> budget;
};

class TracedPipeline {
 public:
  // `deadline_cap_ms` mirrors JsonlRequestRunner::Defaults::deadline_cap_ms
  // for JSONL lines (negative = none).
  explicit TracedPipeline(int64_t deadline_cap_ms);

  // One bulk request: graph text in, AnalysisJson out. Returns the
  // response; *ok is false (and the response holds the reason) when the
  // text does not parse.
  std::string RunText(const std::string& text, const RequestSpec& spec,
                      LayerTotals* totals, pebblejoin::JoinAnalysis* analysis,
                      bool* ok) const;

  // One JSONL request line of the serve-mix corpus (keys "graph",
  // "solver", "node_budget"), handled as JsonlRequestRunner handles it.
  std::string RunJsonl(const std::string& line, LayerTotals* totals,
                       pebblejoin::JoinAnalysis* analysis, bool* ok) const;

 private:
  std::string Solve(const pebblejoin::BipartiteGraph& graph,
                    const RequestSpec& spec, int64_t start_ns,
                    LayerTotals* totals,
                    pebblejoin::JoinAnalysis* analysis) const;

  int64_t deadline_cap_ms_;
  pebblejoin::SortMergePebbler sort_merge_;
  pebblejoin::GreedyWalkPebbler greedy_;
  pebblejoin::DfsTreePebbler dfs_tree_;
  pebblejoin::LocalSearchPebbler local_search_;
  pebblejoin::IlsPebbler ils_;
  pebblejoin::ExactPebbler exact_;
  pebblejoin::FallbackPebbler fallback_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_PIPELINE_H_
