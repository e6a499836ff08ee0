#include "metrics/coverage.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace vqi {

namespace {

// Data graphs are indexed a block at a time, and every pattern is matched
// against the whole block before the next pattern: each index is built
// once, only a block of them is alive at once, and a pattern's data stays
// in cache across the block (walking all patterns per graph instead was
// measured up to 1.9x slower on CATAPULT's candidates over 1,000
// molecules).
constexpr size_t kIndexBlock = 64;

// Calls visit(p, i, index of graph i) for every pattern p < num_patterns and
// data graph i.
template <typename Visit>
void ForEachPatternAndGraph(const GraphDatabase& db, size_t num_patterns,
                            Visit&& visit) {
  if (num_patterns == 0) return;
  const std::vector<Graph>& graphs = db.graphs();
  std::vector<std::shared_ptr<const MatchIndex>> block;
  for (size_t start = 0; start < graphs.size(); start += kIndexBlock) {
    const size_t end = std::min(graphs.size(), start + kIndexBlock);
    block.clear();
    for (size_t i = start; i < end; ++i) {
      block.push_back(MatchIndex::Build(graphs[i]));
    }
    for (size_t p = 0; p < num_patterns; ++p) {
      for (size_t i = start; i < end; ++i) visit(p, i, block[i - start]);
    }
  }
}

}  // namespace

Bitset CoverageBits(const GraphDatabase& db, const Graph& pattern,
                    const MatchOptions& options) {
  Bitset bits(db.size());
  const auto& graphs = db.graphs();
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (ContainsSubgraph(graphs[i], pattern, options)) bits.Set(i);
  }
  return bits;
}

std::vector<Bitset> CoverageBitsOfEach(const GraphDatabase& db,
                                       const std::vector<Graph>& patterns) {
  std::vector<Bitset> bits(patterns.size(), Bitset(db.size()));
  const std::vector<Graph>& graphs = db.graphs();
  ForEachPatternAndGraph(
      db, patterns.size(),
      [&](size_t p, size_t i, const std::shared_ptr<const MatchIndex>& index) {
        if (SubgraphMatcher(patterns[p], graphs[i], index).Exists()) {
          bits[p].Set(i);
        }
      });
  return bits;
}

double DbCoverage(const GraphDatabase& db, const Graph& pattern) {
  if (db.empty()) return 0.0;
  return static_cast<double>(CoverageBits(db, pattern).Count()) /
         static_cast<double>(db.size());
}

std::vector<double> DbCoverageOfEach(const GraphDatabase& db,
                                     const std::vector<Graph>& patterns) {
  std::vector<double> coverages(patterns.size(), 0.0);
  if (db.empty()) return coverages;
  std::vector<Bitset> bits = CoverageBitsOfEach(db, patterns);
  for (size_t p = 0; p < patterns.size(); ++p) {
    coverages[p] = static_cast<double>(bits[p].Count()) /
                   static_cast<double>(db.size());
  }
  return coverages;
}

double DbSetCoverage(const GraphDatabase& db,
                     const std::vector<Graph>& patterns) {
  if (db.empty()) return 0.0;
  // A graph is done as soon as one pattern covers it.
  Bitset covered(db.size());
  const std::vector<Graph>& graphs = db.graphs();
  ForEachPatternAndGraph(
      db, patterns.size(),
      [&](size_t p, size_t i, const std::shared_ptr<const MatchIndex>& index) {
        if (!covered.Test(i) &&
            SubgraphMatcher(patterns[p], graphs[i], index).Exists()) {
          covered.Set(i);
        }
      });
  return static_cast<double>(covered.Count()) /
         static_cast<double>(db.size());
}

Bitset NetworkCoverageBits(const Graph& network,
                           const std::vector<Edge>& network_edges,
                           const Graph& pattern,
                           const NetworkCoverageOptions& options,
                           std::shared_ptr<const MatchIndex> index) {
  Bitset bits(network_edges.size());
  if (pattern.NumEdges() == 0) return bits;

  MatchOptions match;
  match.match_vertex_labels = options.match_vertex_labels;
  match.max_embeddings = options.max_embeddings;
  match.max_steps = options.max_steps;
  SubgraphMatcher matcher(pattern, network, std::move(index), match);
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
  std::shared_ptr<const MatchIndex> index = MatchIndex::Build(network);
  Bitset covered(edges.size());
  for (const Graph& p : patterns) {
    covered.UnionWith(NetworkCoverageBits(network, edges, p, options, index));
  }
  return static_cast<double>(covered.Count()) /
         static_cast<double>(edges.size());
}

std::vector<double> NetworkCoverageOfEach(
    const Graph& network, const std::vector<Graph>& patterns,
    const NetworkCoverageOptions& options) {
  std::vector<double> coverages(patterns.size(), 0.0);
  std::vector<Edge> edges = network.Edges();
  if (edges.empty()) return coverages;
  std::shared_ptr<const MatchIndex> index = MatchIndex::Build(network);
  for (size_t p = 0; p < patterns.size(); ++p) {
    coverages[p] = static_cast<double>(
                       NetworkCoverageBits(network, edges, patterns[p],
                                           options, index)
                           .Count()) /
                   static_cast<double>(edges.size());
  }
  return coverages;
}

}  // namespace vqi
