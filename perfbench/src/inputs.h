// Seeded input generators for the three workloads, drawn from the
// library's deterministic pebblejoin::Rng (and, for the serve-mix corpus,
// the library's fixed graph families). The program under test only ever
// sees the resulting graph text or JSONL lines.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A bipartite join graph as the `bipartite L R M` text the CLI reads.
struct GraphText {
  std::string text;
  int64_t m = 0;
};

// Theorem 4.1 instance: `components` disjoint K_{a,b}, every (a, b) in
// 1..3 x 1..3 equally often (so a and b are each uniform in 1..3, and the
// mean is 4 edges). Vertex ids are permuted on both sides and the edge list
// is shuffled, as tuple ids in two unsorted relations would be; the seed
// picks only the ids and the order. With shapes drawn at random, m moved
// by +-0.3% from seed to seed and the request's peak heap jumped between
// 203.8 and 216.1 MB from one seed to the next.
GraphText EquijoinBulk(uint64_t seed, int components);

// A connected random bipartite graph: a random attachment tree over all
// left + right vertices, then distinct uniformly random extra edges up to
// m, in shuffled order.
GraphText ConnectedBipartite(uint64_t seed, int left, int right, int64_t m);

// A connected random bipartite graph in which every vertex has the same
// degree: side + side vertices, side * degree edges, in shuffled order.
GraphText RegularBipartite(uint64_t seed, int side, int degree);

// One JSONL request of the serve-mix corpus.
struct CorpusLine {
  std::string json;  // the request line, no trailing newline
  int64_t m = 0;
  std::string shape;  // generator family, for the README tables
};

// The serve-mix corpus: `lines` synthetic requests in seeded order, every
// one with solver=fallback and a node budget. The count of each shape is
// fixed (use a multiple of 200 lines), chosen for a steady p99 rather than
// taken from traffic; only the random graphs and the order depend on the
// seed.
std::vector<CorpusLine> ServeMixCorpus(uint64_t seed, int lines);

// The node budget every serve-mix request carries.
constexpr int64_t kServeNodeBudget = 50000;

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
