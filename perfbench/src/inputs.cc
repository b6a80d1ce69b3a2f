#include "inputs.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "graph/generators.h"
#include "io/graph_io.h"
#include "obs/json.h"
#include "util/random.h"

namespace perfbench {
namespace {

using pebblejoin::Rng;
using Edge = std::pair<int, int>;

GraphText Render(int left, int right, const std::vector<Edge>& edges) {
  GraphText out;
  out.m = static_cast<int64_t>(edges.size());
  out.text.reserve(edges.size() * 14 + 32);
  out.text += "bipartite " + std::to_string(left) + " " +
              std::to_string(right) + " " + std::to_string(edges.size()) +
              "\n";
  for (const Edge& e : edges) {
    out.text += std::to_string(e.first);
    out.text += ' ';
    out.text += std::to_string(e.second);
    out.text += '\n';
  }
  return out;
}

std::string RequestLine(const std::string& graph_text) {
  return "{\"graph\": \"" + pebblejoin::JsonEscape(graph_text) +
         "\", \"solver\": \"fallback\", \"node_budget\": " +
         std::to_string(kServeNodeBudget) + "}";
}

CorpusLine Line(const std::string& text, int64_t m, const char* shape) {
  return {RequestLine(text), m, shape};
}

CorpusLine Line(const pebblejoin::BipartiteGraph& g, const char* shape) {
  return Line(pebblejoin::SerializeBipartiteGraph(g), g.num_edges(), shape);
}

CorpusLine Line(const GraphText& g, const char* shape) {
  return Line(g.text, g.m, shape);
}

}  // namespace

GraphText EquijoinBulk(uint64_t seed, int components) {
  Rng rng(seed);
  std::vector<int> a(components), b(components);
  int left = 0, right = 0;
  for (int c = 0; c < components; ++c) {
    a[c] = 1 + (c % 9) / 3;
    b[c] = 1 + c % 3;
    left += a[c];
    right += b[c];
  }
  const std::vector<int> left_id = rng.Permutation(left);
  const std::vector<int> right_id = rng.Permutation(right);
  std::vector<Edge> edges;
  int l0 = 0, r0 = 0;
  for (int c = 0; c < components; ++c) {
    for (int i = 0; i < a[c]; ++i) {
      for (int j = 0; j < b[c]; ++j) {
        edges.emplace_back(left_id[l0 + i], right_id[r0 + j]);
      }
    }
    l0 += a[c];
    r0 += b[c];
  }
  rng.Shuffle(&edges);
  return Render(left, right, edges);
}

GraphText ConnectedBipartite(uint64_t seed, int left, int right, int64_t m) {
  Rng rng(seed);
  std::vector<Edge> edges;
  std::unordered_set<int64_t> seen;
  const auto add = [&](int l, int r) {
    if (seen.insert(int64_t{l} * right + r).second) edges.emplace_back(l, r);
  };
  // Attachment tree: vertices join in a random interleaving of the two
  // sides, each linked to a random already-attached vertex of the other
  // side, so the graph is connected.
  const std::vector<int> lo = rng.Permutation(left);
  const std::vector<int> ro = rng.Permutation(right);
  std::vector<int> attached_left{lo[0]}, attached_right;
  size_t li = 1, ri = 0;
  while (li < lo.size() || ri < ro.size()) {
    const bool can_left = li < lo.size() && !attached_right.empty();
    const bool can_right = ri < ro.size();
    const bool take_right =
        !can_left || (can_right && rng.UniformInt(2) == 0);
    if (take_right) {
      const int r = ro[ri++];
      add(attached_left[rng.UniformInt(attached_left.size())], r);
      attached_right.push_back(r);
    } else {
      const int l = lo[li++];
      add(l, attached_right[rng.UniformInt(attached_right.size())]);
      attached_left.push_back(l);
    }
  }
  while (static_cast<int64_t>(edges.size()) < m) {
    add(static_cast<int>(rng.UniformInt(left)),
        static_cast<int>(rng.UniformInt(right)));
  }
  rng.Shuffle(&edges);
  return Render(left, right, edges);
}

GraphText RegularBipartite(uint64_t seed, int side, int degree) {
  Rng rng(seed);
  while (true) {
    // Pairing model: `degree` stubs per vertex on each side, the right
    // stubs shuffled against the left ones.
    std::vector<int> right_stub;
    for (int v = 0; v < side; ++v) {
      for (int k = 0; k < degree; ++k) right_stub.push_back(v);
    }
    rng.Shuffle(&right_stub);
    const size_t m = right_stub.size();
    const auto key = [&](size_t i) {
      return static_cast<int64_t>(i / degree) * side + right_stub[i];
    };
    // Repair repeated pairs: swap the right stub of a repeat with that of a
    // random pair that is not one, when neither new pair exists yet.
    std::unordered_set<int64_t> seen;
    std::vector<size_t> repeated;
    std::vector<char> is_repeated(m, 0);
    for (size_t i = 0; i < m; ++i) {
      if (!seen.insert(key(i)).second) {
        repeated.push_back(i);
        is_repeated[i] = 1;
      }
    }
    for (size_t tries = 0; !repeated.empty() && tries < 100 * m; ++tries) {
      const size_t i = repeated.back();
      const size_t j =
          static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(m)));
      if (is_repeated[j]) continue;
      seen.erase(key(j));
      std::swap(right_stub[i], right_stub[j]);
      if (key(i) == key(j) || seen.count(key(i)) || seen.count(key(j))) {
        std::swap(right_stub[i], right_stub[j]);
        seen.insert(key(j));
        continue;
      }
      seen.insert(key(i));
      seen.insert(key(j));
      is_repeated[i] = 0;
      repeated.pop_back();
    }
    if (!repeated.empty() || seen.size() != m) continue;
    // Keep it only if connected.
    std::vector<int> parent(2 * side);
    for (int v = 0; v < 2 * side; ++v) parent[v] = v;
    const auto find = [&](int v) {
      while (parent[v] != v) v = parent[v] = parent[parent[v]];
      return v;
    };
    int components = 2 * side;
    std::vector<Edge> edges;
    for (size_t i = 0; i < m; ++i) {
      const int l = static_cast<int>(i / degree), r = right_stub[i];
      edges.emplace_back(l, r);
      const int a = find(l), b = find(side + r);
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
    if (components != 1) continue;
    rng.Shuffle(&edges);
    return Render(side, side, edges);
  }
}

std::vector<CorpusLine> ServeMixCorpus(uint64_t seed, int lines) {
  using namespace pebblejoin;
  Rng rng(seed);
  // A synthetic mix with fixed counts per thousand lines, so every seed has
  // the same mix and only the random graphs and the order change. The
  // shapes are the light E20 ones, a medium band and a rare heavy tail; the
  // counts are not taken from observed traffic:
  //   heavy  20: worst-case G8 (Held-Karp, ~15 ms) and sparse random 12x12
  //              with m = 30 (branch and bound), 15 and 5;
  //   medium 95: random 12x12 with m = 60..120 and worst-case G12..G16;
  //   light rest: the E20 shapes, in equal thirds.
  // G8 is 1.5% of the lines (not 1%) so that p99 sits well inside the
  // cluster of G8 answers (and, over a socket, the lines stuck behind them)
  // instead of on its edge, where it flipped between that cluster and the
  // rest from seed to seed.
  const int g8 = lines * 15 / 1000;
  const int r30 = lines * 5 / 1000;
  const int medium = lines * 95 / 1000;
  std::vector<CorpusLine> corpus;
  corpus.reserve(lines);
  for (int i = 0; i < g8; ++i) {
    corpus.push_back(Line(WorstCaseFamily(8), "heavy:worstcase-8"));
  }
  for (int i = 0; i < r30; ++i) {
    corpus.push_back(Line(ConnectedBipartite(rng.Next(), 12, 12, 30),
                          "heavy:random-12x12-m30"));
  }
  for (int i = 0; i < medium; ++i) {
    if (i % 2 == 0) {
      corpus.push_back(Line(ConnectedBipartite(rng.Next(), 12, 12, 60 + i % 61),
                            "medium:random-12x12-m60..120"));
    } else {
      corpus.push_back(Line(WorstCaseFamily(12 + (i / 2) % 5),
                            "medium:worstcase-12..16"));
    }
  }
  for (int i = 0; static_cast<int>(corpus.size()) < lines; ++i) {
    switch (i % 3) {
      case 0:
        corpus.push_back(Line(WorstCaseFamily(4 + (i / 3) % 3),
                              "light:worstcase-4..6"));
        break;
      case 1:
        corpus.push_back(Line(ConnectedBipartite(rng.Next(), 5, 5, 12),
                              "light:random-5x5-m12"));
        break;
      default:
        corpus.push_back(
            Line(DisjointUnion(CompleteBipartite(3, 3), StarGraph(4)),
                 "light:k33+star4"));
        break;
    }
  }
  rng.Shuffle(&corpus);
  return corpus;
}

}  // namespace perfbench
