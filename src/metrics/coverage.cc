#include "metrics/coverage.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vqi {

Bitset CoverageBits(const GraphDatabase& db, const Graph& pattern,
                    const MatchOptions& options) {
  Bitset bits(db.size());
  const auto& graphs = db.graphs();
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (ContainsSubgraph(graphs[i], pattern, options)) bits.Set(i);
  }
  return bits;
}

double DbCoverage(const GraphDatabase& db, const Graph& pattern) {
  if (db.empty()) return 0.0;
  return static_cast<double>(CoverageBits(db, pattern).Count()) /
         static_cast<double>(db.size());
}

double DbSetCoverage(const GraphDatabase& db,
                     const std::vector<Graph>& patterns) {
  if (db.empty()) return 0.0;
  Bitset covered(db.size());
  for (const Graph& p : patterns) covered.UnionWith(CoverageBits(db, p));
  return static_cast<double>(covered.Count()) /
         static_cast<double>(db.size());
}

Bitset NetworkCoverageBits(const Graph& network,
                           const std::vector<Edge>& network_edges,
                           const Graph& pattern,
                           const NetworkCoverageOptions& options) {
  Bitset bits(network_edges.size());
  if (pattern.NumEdges() == 0) return bits;

  MatchOptions match;
  match.match_vertex_labels = options.match_vertex_labels;
  match.max_embeddings = options.max_embeddings;
  match.max_steps = options.max_steps;
  SubgraphMatcher matcher(pattern, network, match);
  std::vector<Edge> pattern_edges = pattern.Edges();
  // network_edges is network.Edges(): sorted by (u, v) with u < v, so an
  // edge's index is a binary search away and no lookup table is built.
  auto before = [](const Edge& e, const std::pair<VertexId, VertexId>& key) {
    return std::pair(e.u, e.v) < key;
  };
  matcher.Enumerate([&](const Embedding& embedding) {
    for (const Edge& pe : pattern_edges) {
      VertexId u = embedding[pe.u], v = embedding[pe.v];
      if (u > v) std::swap(u, v);
      auto it = std::lower_bound(network_edges.begin(), network_edges.end(),
                                 std::pair(u, v), before);
      if (it != network_edges.end() && it->u == u && it->v == v) {
        bits.Set(static_cast<size_t>(it - network_edges.begin()));
      }
    }
    return true;
  });
  return bits;
}

double NetworkSetCoverage(const Graph& network,
                          const std::vector<Graph>& patterns,
                          const NetworkCoverageOptions& options) {
  std::vector<Edge> edges = network.Edges();
  if (edges.empty()) return 0.0;
  Bitset covered(edges.size());
  for (const Graph& p : patterns) {
    covered.UnionWith(NetworkCoverageBits(network, edges, p, options));
  }
  return static_cast<double>(covered.Count()) /
         static_cast<double>(edges.size());
}

}  // namespace vqi
