// Answer oracle for the benchmark: a plain backtracking embedding counter and
// a label-triple recount, written against the graph layer only so that it
// shares no code with src/match/ (the matcher under test) or with the
// suggestion index.
#ifndef VQIBENCH_ORACLE_H_
#define VQIBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_database.h"

namespace vqibench {

/// Label-preserving injective embeddings (monomorphisms) of `pattern` in
/// `target`, counted as distinct vertex mappings, stopping at `cap`
/// (0 = no cap). Vertex and edge labels must match; the embedding need not
/// be induced.
uint64_t OracleEmbeddings(const vqi::Graph& pattern, const vqi::Graph& target,
                         uint64_t cap);

inline bool OracleContains(const vqi::Graph& pattern, const vqi::Graph& target) {
  return OracleEmbeddings(pattern, target, 1) > 0;
}

bool OracleConnected(const vqi::Graph& g);

/// (from label, edge label, to label) -> edges that continue a `from` vertex
/// that way; an edge counts under both orientations when its end labels
/// differ, once when they are equal.
using TripleCounts = std::map<std::tuple<vqi::Label, vqi::Label, vqi::Label>,
                              uint64_t>;
void AddTriples(const vqi::Graph& g, TripleCounts* counts);
TripleCounts CountTriples(const vqi::GraphDatabase& db);

struct Suggestion {
  vqi::Label edge = 0;
  vqi::Label to = 0;
  uint64_t support = 0;
  bool operator==(const Suggestion&) const = default;
};
/// Top-k continuations from `from`: support descending, then (edge, to)
/// ascending.
std::vector<Suggestion> TopSuggestions(const TripleCounts& counts,
                                       vqi::Label from, size_t k);

/// Vertex and edge label occurrence counts, recounted from the graphs.
struct LabelCounts {
  std::map<vqi::Label, uint64_t> vertices;
  std::map<vqi::Label, uint64_t> edges;
};
void AddLabels(const vqi::Graph& g, LabelCounts* counts);

}  // namespace vqibench

#endif  // VQIBENCH_ORACLE_H_
