#ifndef VQLIB_MATCH_CANDIDATE_INDEX_H_
#define VQLIB_MATCH_CANDIDATE_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "match/csr_graph.h"

namespace vqi {

/// Per-graph candidate index for the matcher: vertex-label buckets in
/// vertex-id order (the order the search visits anchorless candidates in),
/// each label's degrees sorted ascending (so the seeding heuristic's
/// candidate count is one lower_bound), and 64-bit neighborhood label
/// signatures. Every filter is prune-only: it may only reject vertices that
/// cannot appear in any embedding (tests/match_test.cc checks soundness
/// against the legacy search in tests/vf2_oracle.h).
class CandidateIndex {
 public:
  /// Builds the index over a CSR view of the graph.
  static CandidateIndex Build(const CsrGraph& csr);

  /// Bit for one vertex label in a 64-bit neighborhood signature. Labels are
  /// folded mod 64, so the subset test below is conservative (never prunes a
  /// true candidate) even for large alphabets.
  static uint64_t LabelBit(Label label) {
    return uint64_t{1} << (label & 63u);
  }

  /// True when every label bit required around the pattern vertex is present
  /// around the target vertex — a necessary condition for an embedding when
  /// vertex labels are matched exactly.
  static bool SignatureSubsumes(uint64_t pattern_sig, uint64_t target_sig) {
    return (pattern_sig & ~target_sig) == 0;
  }

  /// Contiguous run of target vertices, id-ascending.
  struct Range {
    const VertexId* begin = nullptr;
    const VertexId* end = nullptr;
  };

  /// Vertices labeled `label` (empty range when the label does not occur).
  Range VerticesWithLabel(Label label) const;

  /// Number of vertices labeled `label` with degree >= `min_degree`.
  size_t CountCandidates(Label label, uint32_t min_degree) const;

  /// OR of LabelBit over v's neighbors' vertex labels.
  uint64_t NeighborhoodSignature(VertexId v) const { return signatures_[v]; }

  /// Bits for labels appearing on >= 2 of v's neighbors. A pattern vertex
  /// with two same-label neighbors can only embed at a target vertex that
  /// also sees that label at least twice, so the repeat mask subsumption is
  /// sound whenever the base signature is (exact label matching). Folding
  /// mod 64 stays conservative: a pattern repeat bit means >= 2 neighbors in
  /// that bit's label class, which the embedding forces onto >= 2 distinct
  /// same-class target neighbors.
  uint64_t NeighborhoodRepeatSignature(VertexId v) const {
    return repeat_signatures_[v];
  }

 private:
  // Both arrays are grouped by label into the same [begin, end) runs.
  std::vector<VertexId> bucket_vertices_;  // id-ascending within a run
  std::vector<uint32_t> bucket_degrees_;   // degree-ascending within a run
  std::unordered_map<Label, std::pair<uint32_t, uint32_t>> buckets_;
  std::vector<uint64_t> signatures_;
  std::vector<uint64_t> repeat_signatures_;
};

/// The unit the serving layer caches per graph: a CSR snapshot plus its
/// candidate index, built together and shared immutably across threads.
struct MatchIndex {
  CsrGraph csr;
  CandidateIndex candidates;

  static std::shared_ptr<const MatchIndex> Build(const Graph& g);
};

/// Thread-safe lazy cache of MatchIndex per graph id, validated against
/// GraphDatabase::ContentVersion — a maintainer batch that re-adds a graph
/// bumps its version, so the next lookup rebuilds instead of serving a stale
/// index. Builds happen outside the lock; concurrent builders race benignly
/// (last insert wins, both results are correct for the same version).
class MatchIndexCache {
 public:
  /// The current index for `id`, building it if missing or out of date.
  /// Returns nullptr when `db` does not contain `id`.
  std::shared_ptr<const MatchIndex> Get(const GraphDatabase& db, GraphId id);

  /// Total index builds since construction (serving-layer observability).
  uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t version = 0;
    std::shared_ptr<const MatchIndex> index;
  };

  mutable Mutex mutex_;
  std::unordered_map<GraphId, Entry> entries_ VQLIB_GUARDED_BY(mutex_);
  std::atomic<uint64_t> builds_{0};
};

}  // namespace vqi

#endif  // VQLIB_MATCH_CANDIDATE_INDEX_H_
