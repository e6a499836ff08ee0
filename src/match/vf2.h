#ifndef VQLIB_MATCH_VF2_H_
#define VQLIB_MATCH_VF2_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "match/candidate_index.h"
#include "match/csr_graph.h"

namespace vqi {

/// Options controlling subgraph matching semantics and budgets.
struct MatchOptions {
  /// When true, require induced embeddings (pattern non-edges must map to
  /// target non-edges). Coverage in the surveyed papers uses plain subgraph
  /// isomorphism (monomorphism), the default.
  bool induced = false;
  /// Respect vertex labels (a pattern vertex only maps to an equal label).
  bool match_vertex_labels = true;
  /// Respect edge labels.
  bool match_edge_labels = true;
  /// Treat kDummyLabel as a wildcard that matches any label (closure-graph
  /// semantics: a dummy vertex/edge stands for "some member has this").
  bool dummy_is_wildcard = false;
  /// Stop after this many embeddings during Count/Enumerate. 0 = unlimited.
  uint64_t max_embeddings = 0;
  /// Abort search after this many recursive steps (guards worst cases on
  /// large targets). 0 = unlimited.
  uint64_t max_steps = 0;
  /// Ignored: every matcher runs over a MatchIndex. Kept only so callers
  /// that still set it compile; nothing reads it.
  bool use_index = false;
};

/// An embedding maps pattern vertex i to Embedding[i] in the target.
using Embedding = std::vector<VertexId>;

/// VF2-style backtracking matcher for one (pattern, target) pair over the
/// target's MatchIndex. It seeds from the rarest-label pattern vertex and
/// pre-filters extensions by degree and neighborhood label signatures before
/// the full feasibility check. Candidates are visited in the order of a plain
/// scan (anchor neighbours in adjacency order, anchorless depths in vertex-id
/// order), so the filters only cut branches that hold no embedding and the
/// embeddings come out in the sequence of the unfiltered search
/// (tests/vf2_oracle.h, checked by tests/differential_test.cc).
///
/// The pattern must be connected for meaningful candidate propagation; a
/// disconnected pattern is matched component-by-component implicitly by
/// falling back to label-bucket scans, which is correct but slow.
class SubgraphMatcher {
 public:
  /// Builds a private MatchIndex of `target`. Callers that match several
  /// patterns against one target should build the index once and use the
  /// constructor below.
  SubgraphMatcher(const Graph& pattern, const Graph& target,
                  MatchOptions options = {});

  /// Same, reusing a prebuilt (typically cached) index of `target`: `index`
  /// must have been built from this exact target graph content. Passing
  /// nullptr behaves like the two-argument constructor.
  SubgraphMatcher(const Graph& pattern, const Graph& target,
                  std::shared_ptr<const MatchIndex> index,
                  MatchOptions options = {});

  /// True when at least one embedding exists.
  bool Exists();

  /// Returns some embedding or nullopt.
  std::optional<Embedding> FindOne();

  /// Counts embeddings up to options.max_embeddings (distinct mappings;
  /// automorphic images count separately, as in the coverage definitions of
  /// the surveyed papers).
  uint64_t CountEmbeddings();

  /// Invokes `callback` per embedding; return false from it to stop early.
  /// Returns the number of embeddings delivered.
  uint64_t Enumerate(const std::function<bool(const Embedding&)>& callback);

  /// True when the search hit max_steps before completing (results may be
  /// lower bounds). Reset at the start of every Exists/FindOne/Count/
  /// Enumerate call, so it always describes the most recent run.
  bool hit_step_limit() const { return hit_step_limit_; }

  /// Adjusts the step budget for subsequent runs (0 = unlimited), letting a
  /// caller retry the same matcher with a bigger budget after a limited run.
  void set_max_steps(uint64_t max_steps) { options_.max_steps = max_steps; }

  /// Search steps consumed by the last Exists/FindOne/Count/Enumerate call —
  /// one step per search-tree node expansion plus one per feasibility probe
  /// on a candidate vertex (the O(degree) consistency check). This is the
  /// unit max_steps budgets, exposed so callers (e.g. the query service's
  /// deadline slicing) can meter matcher work. Candidates rejected by the
  /// index's O(1) admission filters never cost a step, so the step count is
  /// directly comparable with the unfiltered search in tests/vf2_oracle.h.
  uint64_t steps() const { return steps_; }

 private:
  void ComputeOrder();
  bool Feasible(VertexId pu, VertexId tv) const;
  /// Cheap prune-only index filters (degree, exact label, signature
  /// subsumption).
  bool IndexAdmits(VertexId pu, VertexId tv) const;
  bool Recurse(size_t depth, const std::function<bool(const Embedding&)>& cb,
               uint64_t* found);

  MatchOptions options_;
  CsrGraph pattern_csr_;                      // always owned; patterns are small
  std::shared_ptr<const MatchIndex> index_;   // never null
  const CsrGraph* tcsr_ = nullptr;            // &index_->csr
  const CandidateIndex* candidates_ = nullptr;  // &index_->candidates
  bool label_filters_ = false;  // bucket seeding + signatures are sound
  // Pattern-side data hoisted to construction.
  std::vector<uint32_t> pattern_degree_;
  std::vector<uint64_t> pattern_sig_;   // only filled when label_filters_
  std::vector<uint64_t> pattern_repeat_sig_;  // labels seen >= 2x; ditto
  std::vector<VertexId> order_;        // pattern vertices in match order
  std::vector<int> anchor_;            // order index of an earlier neighbor
  std::vector<VertexId> mapping_;      // pattern -> target (kUnmapped if none)
  std::vector<bool> used_;             // target vertex already used
  uint64_t steps_ = 0;
  bool hit_step_limit_ = false;

  static constexpr VertexId kUnmapped = 0xFFFFFFFFu;
};

/// Convenience: does `target` contain a subgraph isomorphic to `pattern`?
bool ContainsSubgraph(const Graph& target, const Graph& pattern,
                      const MatchOptions& options = {});

/// Convenience: count embeddings of `pattern` in `target` with a cap.
uint64_t CountEmbeddings(const Graph& target, const Graph& pattern,
                         uint64_t cap, const MatchOptions& options = {});

}  // namespace vqi

#endif  // VQLIB_MATCH_VF2_H_
