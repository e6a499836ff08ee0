#ifndef VQLIB_METRICS_COVERAGE_H_
#define VQLIB_METRICS_COVERAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitset.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/vf2.h"

namespace vqi {

/// --- Database coverage (CATAPULT/MIDAS semantics) -------------------------
/// A pattern p covers data graph G when G contains a subgraph isomorphic to
/// p. Coverage of a pattern set = fraction of database graphs covered by at
/// least one pattern.

/// Bitset over db.graphs() order: bit i set iff pattern occurs in graph i.
Bitset CoverageBits(const GraphDatabase& db, const Graph& pattern,
                    const MatchOptions& options = {});

/// CoverageBits of each pattern. Every data graph's MatchIndex is built once
/// and shared by all patterns; only a small block of indexes is alive at a
/// time. Loops that score many patterns should call this rather than
/// CoverageBits per pattern, which builds every graph's index per call.
std::vector<Bitset> CoverageBitsOfEach(const GraphDatabase& db,
                                       const std::vector<Graph>& patterns);

/// Fraction of graphs covered by `pattern` alone.
double DbCoverage(const GraphDatabase& db, const Graph& pattern);

/// DbCoverage of each pattern, one index per data graph like
/// CoverageBitsOfEach.
std::vector<double> DbCoverageOfEach(const GraphDatabase& db,
                                     const std::vector<Graph>& patterns);

/// Fraction of graphs covered by at least one pattern in `patterns`.
double DbSetCoverage(const GraphDatabase& db,
                     const std::vector<Graph>& patterns);

/// --- Network coverage (TATTOO semantics) ----------------------------------
/// On a single large network, coverage of a pattern is the fraction of the
/// network's *edges* touched by some embedding. Exact enumeration is
/// intractable, so embeddings are enumerated up to `max_embeddings` and
/// `max_steps`, matching TATTOO's budgeted estimation.

struct NetworkCoverageOptions {
  uint64_t max_embeddings = 256;
  uint64_t max_steps = 200000;
  bool match_vertex_labels = true;
};

/// Bitset over the network's edge list (g.Edges() order): bit set iff that
/// edge is used by one of the enumerated embeddings of `pattern`.
/// `network_edges` must be `network.Edges()`; it is binary-searched.
/// `index`, when given, must be MatchIndex::Build(network); loops over many
/// patterns pass one so the network is indexed once, not once per pattern.
Bitset NetworkCoverageBits(const Graph& network,
                           const std::vector<Edge>& network_edges,
                           const Graph& pattern,
                           const NetworkCoverageOptions& options = {},
                           std::shared_ptr<const MatchIndex> index = nullptr);

/// Fraction of network edges covered by a pattern set under the budget.
double NetworkSetCoverage(const Graph& network,
                          const std::vector<Graph>& patterns,
                          const NetworkCoverageOptions& options = {});

/// NetworkSetCoverage of each pattern on its own, over one shared index.
std::vector<double> NetworkCoverageOfEach(
    const Graph& network, const std::vector<Graph>& patterns,
    const NetworkCoverageOptions& options = {});

}  // namespace vqi

#endif  // VQLIB_METRICS_COVERAGE_H_
