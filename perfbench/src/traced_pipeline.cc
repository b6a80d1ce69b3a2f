#include "traced_pipeline.h"

#include <chrono>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/report.h"
#include "engine/admission.h"
#include "engine/names.h"
#include "graph/components.h"
#include "io/graph_io.h"
#include "obs/json_value.h"
#include "util/check.h"

namespace perfbench {

using namespace pebblejoin;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t LayerTotals::SpanSumNs() const {
  return parse_ns + build_ns + classify_ns + components_ns + extract_ns +
         solve_ns + verify_ns + serialize_ns;
}

TracedPipeline::TracedPipeline(int64_t deadline_cap_ms)
    : deadline_cap_ms_(deadline_cap_ms) {}

std::string TracedPipeline::RunText(const std::string& text,
                                    const RequestSpec& spec,
                                    LayerTotals* totals,
                                    JoinAnalysis* analysis, bool* ok) const {
  const int64_t start = NowNs();
  const AllocSnapshot a0 = ReadAllocCounts();
  std::string error;
  const std::optional<BipartiteGraph> graph = ParseBipartiteGraph(text, &error);
  totals->parse_alloc_bytes += (ReadAllocCounts() - a0).bytes;
  totals->parse_ns += NowNs() - start;
  *ok = graph.has_value();
  if (!*ok) return error;
  return Solve(*graph, spec, start, totals, analysis);
}

std::string TracedPipeline::RunJsonl(const std::string& line,
                                     LayerTotals* totals,
                                     JoinAnalysis* analysis, bool* ok) const {
  const int64_t start = NowNs();
  const AllocSnapshot a0 = ReadAllocCounts();
  *ok = false;
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(line, &error);
  if (!doc.has_value() || !doc->is_object()) return "unparsable line";
  std::optional<BipartiteGraph> graph;
  RequestSpec spec;
  SolveBudget budget;
  bool budget_set = false;
  for (const auto& [key, value] : doc->object_members()) {
    if (key == "graph" && value.is_string()) {
      graph = ParseBipartiteGraph(value.string_value(), &error);
      if (!graph.has_value()) return error;
    } else if (key == "solver" && value.is_string()) {
      SolverChoice choice = SolverChoice::kAuto;
      if (!ParseSolverName(value.string_value(), &choice)) return "solver";
      spec.solver = choice;
    } else if (key == "node_budget" && value.int64_value().has_value()) {
      budget.node_budget = *value.int64_value();
      budget_set = true;
    } else {
      return "key outside the serve-mix corpus: " + key;
    }
  }
  if (!graph.has_value()) return "no graph";
  totals->parse_alloc_bytes += (ReadAllocCounts() - a0).bytes;
  totals->parse_ns += NowNs() - start;
  // JsonlRequestRunner's conventions: a budget without a solver selects
  // the ladder, and the deadline cap makes every request budgeted.
  if (budget_set && !spec.solver.has_value()) {
    spec.solver = SolverChoice::kFallback;
  }
  if (deadline_cap_ms_ >= 0) {
    ClampDeadline(&budget, deadline_cap_ms_);
    budget_set = true;
  }
  if (budget_set) spec.budget = budget;
  *ok = true;
  return Solve(*graph, spec, start, totals, analysis);
}

std::string TracedPipeline::Solve(const BipartiteGraph& graph,
                                  const RequestSpec& spec, int64_t start_ns,
                                  LayerTotals* totals,
                                  JoinAnalysis* analysis_out) const {
  JoinAnalysis analysis;
  SolveStats& stats = analysis.stats;
  analysis.predicate = spec.predicate;
  analysis.left_size = graph.left_size();
  analysis.right_size = graph.right_size();
  analysis.output_size = graph.num_edges();

  // graph.build
  int64_t t = NowNs();
  AllocSnapshot a = ReadAllocCounts();
  Graph flat = graph.ToGraph();
  flat.BuildCsr();
  totals->build_alloc_bytes += (ReadAllocCounts() - a).bytes;
  int64_t t2 = NowNs();
  totals->build_ns += t2 - t;
  stats.stage_build_us = (t2 - t) / 1000;

  // core.classify
  t = t2;
  analysis.classification = ClassifyJoinGraph(flat);
  analysis.features = ExtractGraphFeatures(flat);
  t2 = NowNs();
  totals->classify_ns += t2 - t;
  stats.stage_classify_us = (t2 - t) / 1000;

  // graph.components
  t = t2;
  const ComponentDecomposition decomp = FindComponents(flat);
  t2 = NowNs();
  totals->components_ns += t2 - t;
  stats.stage_partition_us = (t2 - t) / 1000;

  // The engine's PrimaryFor at one thread with the blind ladder.
  const Pebbler* primary = &local_search_;
  switch (spec.solver.value_or(SolverChoice::kAuto)) {
    case SolverChoice::kAuto:
      if (analysis.classification.equijoin_shape) primary = &sort_merge_;
      break;
    case SolverChoice::kSortMerge: primary = &sort_merge_; break;
    case SolverChoice::kGreedyWalk: primary = &greedy_; break;
    case SolverChoice::kDfsTree: primary = &dfs_tree_; break;
    case SolverChoice::kLocalSearch: primary = &local_search_; break;
    case SolverChoice::kIls: primary = &ils_; break;
    case SolverChoice::kExact: primary = &exact_; break;
    case SolverChoice::kFallback: primary = &fallback_; break;
  }

  // solver.solve: ComponentPebbler::SolveDecomposed at one thread, with
  // the extraction and kernel calls timed separately.
  const int64_t solve_start = t2;
  int64_t extract_ns = 0;
  BudgetContext parent(spec.budget.value_or(SolveBudget{}));
  parent.set_stats(&stats);
  parent.set_features(&analysis.features);
  PebbleSolution& solution = analysis.solution;
  solution.num_components = decomp.num_components;
  SharedBudgetState shared;
  for (int c = 0; c < decomp.num_components; ++c) {
    SolveStats component_stats;
    BudgetContext slice = parent.MakeWorkerSlice(&shared);
    slice.set_stats(&component_stats);

    t = NowNs();
    a = ReadAllocCounts();
    std::vector<int> edge_map;
    const Graph sub = ExtractComponent(flat, decomp, c, nullptr, &edge_map);
    totals->extract_alloc_bytes += (ReadAllocCounts() - a).bytes;
    totals->extract_touches += sub.num_vertices() + sub.num_edges();
    t2 = NowNs();
    extract_ns += t2 - t;

    SolveOutcome outcome;
    std::optional<std::vector<int>> order =
        primary->PebbleWithOutcome(sub, &slice, &outcome);
    std::string used = primary->name();
    if (!order.has_value()) {
      BudgetContext fallback_ctx{SolveBudget{}};
      fallback_ctx.set_stats(slice.stats());
      order = greedy_.PebbleWithOutcome(sub, &fallback_ctx, &outcome);
      used = greedy_.name();
    }
    const int64_t t3 = NowNs();
    totals->kernel_ns += t3 - t2;
    JP_CHECK_MSG(order.has_value() &&
                     static_cast<int>(order->size()) == sub.num_edges(),
                 "component solve produced no complete order");
    if (!outcome.winner.empty()) used = outcome.winner;
    for (int local_edge : *order) {
      solution.edge_order.push_back(edge_map[local_edge]);
    }
    solution.solver_used.push_back(std::move(used));
    solution.outcomes.push_back(std::move(outcome));
    solution.component_wall_us.push_back((NowNs() - t2) / 1000);
    parent.AbsorbSlice(slice.polls(), slice.stop_reason());
    stats.Add(component_stats);
  }
  parent.AbsorbShared(shared);
  t2 = NowNs();
  totals->extract_ns += extract_ns;
  totals->solve_ns += t2 - solve_start - extract_ns;
  stats.stage_solve_us = (t2 - solve_start) / 1000;

  // pebble.verify
  t = t2;
  std::string verify_error;
  JP_CHECK_MSG(
      ComponentPebbler::TryVerifyAndCost(flat, &solution, &verify_error),
      verify_error.c_str());
  t2 = NowNs();
  totals->verify_ns += t2 - t;
  stats.stage_verify_us = (t2 - t) / 1000;

  // The engine's report stage: derived fields and budget bookkeeping.
  stats.solve_wall_us = (t2 - solve_start) / 1000;
  stats.budget_polls = parent.polls();
  stats.budget_time_to_stop_ms = parent.stopped_elapsed_ms();
  analysis.perfect = solution.effective_cost == analysis.output_size;
  analysis.cost_ratio =
      analysis.output_size == 0
          ? 1.0
          : static_cast<double>(solution.effective_cost) /
                static_cast<double>(analysis.output_size);

  // core.serialize
  t = NowNs();
  std::string json = AnalysisJson(analysis);
  t2 = NowNs();
  totals->serialize_ns += t2 - t;
  totals->serialize_bytes += static_cast<int64_t>(json.size());
  totals->wall_ns += t2 - start_ns;
  if (analysis_out != nullptr) *analysis_out = std::move(analysis);
  return json;
}

}  // namespace perfbench
