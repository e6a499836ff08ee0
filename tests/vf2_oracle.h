#ifndef VQLIB_TESTS_VF2_ORACLE_H_
#define VQLIB_TESTS_VF2_ORACLE_H_

// Differential oracle for src/match/vf2.cc: the legacy VF2 engine, which
// scans every target vertex at anchorless depths, probes every anchor
// neighbour, and computes the seeding widths by a full scan. The library
// runs the same search over a MatchIndex and skips only candidates the
// index proves cannot embed, so differential_test asserts that it returns
// the same embeddings in the same order in no more steps.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "match/csr_graph.h"
#include "match/vf2.h"

namespace vqi {
namespace oracle {

class LegacyMatcher {
 public:
  // Both graphs must outlive the matcher. `options.use_index` is ignored.
  LegacyMatcher(const Graph& pattern, const Graph& target,
                MatchOptions options = {})
      : pattern_(pattern),
        target_(target),
        options_(options),
        pattern_csr_(pattern),
        target_csr_(target) {
    const size_t n = pattern_csr_.NumVertices();
    pattern_degree_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      pattern_degree_[v] = pattern_csr_.Degree(v);
    }
    mapping_.assign(n, kUnmapped);
    used_.assign(target_.NumVertices(), false);
    ComputeOrder();
  }

  bool Exists() {
    if (pattern_.NumVertices() == 0) return true;
    if (pattern_.NumVertices() > target_.NumVertices() ||
        pattern_.NumEdges() > target_.NumEdges()) {
      return false;
    }
    uint64_t found = 0;
    steps_ = 0;
    hit_step_limit_ = false;
    Recurse(0, [](const Embedding&) { return false; }, &found);
    return found > 0;
  }

  std::optional<Embedding> FindOne() {
    std::optional<Embedding> result;
    if (pattern_.NumVertices() == 0) return Embedding{};
    if (pattern_.NumVertices() > target_.NumVertices() ||
        pattern_.NumEdges() > target_.NumEdges()) {
      return std::nullopt;
    }
    uint64_t found = 0;
    steps_ = 0;
    hit_step_limit_ = false;
    Recurse(
        0,
        [&](const Embedding& e) {
          result = e;
          return false;
        },
        &found);
    return result;
  }

  uint64_t CountEmbeddings() {
    return Enumerate([](const Embedding&) { return true; });
  }

  uint64_t Enumerate(const std::function<bool(const Embedding&)>& callback) {
    if (pattern_.NumVertices() == 0) return 0;
    if (pattern_.NumVertices() > target_.NumVertices() ||
        pattern_.NumEdges() > target_.NumEdges()) {
      return 0;
    }
    uint64_t found = 0;
    steps_ = 0;
    hit_step_limit_ = false;
    Recurse(0, callback, &found);
    return found;
  }

  bool hit_step_limit() const { return hit_step_limit_; }
  void set_max_steps(uint64_t max_steps) { options_.max_steps = max_steps; }
  uint64_t steps() const { return steps_; }

 private:
  void ComputeOrder() {
    size_t n = pattern_csr_.NumVertices();
    order_.clear();
    anchor_.assign(n, -1);
    if (n == 0) return;

    std::vector<bool> placed(n, false);
    VertexId start = 0;
    // Seed from the pattern vertex with the fewest target vertices of equal
    // label and at least its degree, counted by a full scan; ties prefer
    // higher degree, then lower id.
    if (options_.match_vertex_labels && !options_.dummy_is_wildcard) {
      std::vector<size_t> width(n, 0);
      for (VertexId tv = 0; tv < target_csr_.NumVertices(); ++tv) {
        for (VertexId v = 0; v < n; ++v) {
          if (target_csr_.VertexLabel(tv) == pattern_csr_.VertexLabel(v) &&
              target_csr_.Degree(tv) >= pattern_degree_[v]) {
            ++width[v];
          }
        }
      }
      size_t best_width = std::numeric_limits<size_t>::max();
      for (VertexId v = 0; v < n; ++v) {
        if (width[v] < best_width ||
            (width[v] == best_width &&
             pattern_degree_[v] > pattern_degree_[start])) {
          start = v;
          best_width = width[v];
        }
      }
    } else {
      for (VertexId v = 1; v < n; ++v) {
        if (pattern_degree_[v] > pattern_degree_[start]) start = v;
      }
    }
    order_.push_back(start);
    placed[start] = true;

    while (order_.size() < n) {
      int best = -1;
      size_t best_connected = 0;
      size_t best_degree = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (placed[v]) continue;
        size_t connected = 0;
        for (const Neighbor* nb = pattern_csr_.NeighborsBegin(v);
             nb != pattern_csr_.NeighborsEnd(v); ++nb) {
          if (placed[nb->vertex]) ++connected;
        }
        size_t degree = pattern_degree_[v];
        if (best == -1 || connected > best_connected ||
            (connected == best_connected && degree > best_degree)) {
          best = static_cast<int>(v);
          best_connected = connected;
          best_degree = degree;
        }
      }
      VertexId v = static_cast<VertexId>(best);
      placed[v] = true;
      int anchor = -1;
      for (const Neighbor* nb = pattern_csr_.NeighborsBegin(v);
           nb != pattern_csr_.NeighborsEnd(v); ++nb) {
        if (placed[nb->vertex] && nb->vertex != v) {
          for (size_t i = 0; i < order_.size(); ++i) {
            if (order_[i] == nb->vertex) {
              anchor = static_cast<int>(i);
              break;
            }
          }
          if (anchor != -1) break;
        }
      }
      anchor_[order_.size()] = anchor;
      order_.push_back(v);
    }
  }

  bool Feasible(VertexId pu, VertexId tv) const {
    auto labels_compatible = [&](Label a, Label b) {
      if (a == b) return true;
      return options_.dummy_is_wildcard &&
             (a == kDummyLabel || b == kDummyLabel);
    };
    if (options_.match_vertex_labels &&
        !labels_compatible(pattern_csr_.VertexLabel(pu),
                           target_csr_.VertexLabel(tv))) {
      return false;
    }
    if (pattern_degree_[pu] > target_csr_.Degree(tv)) return false;
    for (const Neighbor* nb = pattern_csr_.NeighborsBegin(pu);
         nb != pattern_csr_.NeighborsEnd(pu); ++nb) {
      VertexId mapped = mapping_[nb->vertex];
      if (mapped == kUnmapped) continue;
      std::optional<Label> elabel = target_csr_.EdgeLabel(tv, mapped);
      if (!elabel.has_value()) return false;
      if (options_.match_edge_labels &&
          !labels_compatible(*elabel, nb->edge_label)) {
        return false;
      }
    }
    if (options_.induced) {
      for (VertexId pv = 0; pv < pattern_csr_.NumVertices(); ++pv) {
        if (mapping_[pv] == kUnmapped || pv == pu) continue;
        if (!pattern_csr_.HasEdge(pu, pv) &&
            target_csr_.HasEdge(tv, mapping_[pv])) {
          return false;
        }
      }
    }
    return true;
  }

  bool Recurse(size_t depth, const std::function<bool(const Embedding&)>& cb,
               uint64_t* found) {
    auto budget_ok = [&]() {
      if (options_.max_steps != 0 && steps_ >= options_.max_steps) {
        hit_step_limit_ = true;
        return false;
      }
      ++steps_;
      return true;
    };
    if (!budget_ok()) return false;
    if (depth == order_.size()) {
      ++*found;
      if (!cb(mapping_)) return false;
      if (options_.max_embeddings != 0 && *found >= options_.max_embeddings) {
        return false;
      }
      return true;
    }
    VertexId pu = order_[depth];
    int anchor = anchor_[depth];
    auto try_candidate = [&](VertexId tv) {
      if (used_[tv]) return true;
      if (!budget_ok()) return false;
      if (!Feasible(pu, tv)) return true;
      mapping_[pu] = tv;
      used_[tv] = true;
      bool keep_going = Recurse(depth + 1, cb, found);
      mapping_[pu] = kUnmapped;
      used_[tv] = false;
      return keep_going;
    };
    if (anchor >= 0) {
      VertexId t_anchor = mapping_[order_[static_cast<size_t>(anchor)]];
      for (const Neighbor* nb = target_csr_.NeighborsBegin(t_anchor);
           nb != target_csr_.NeighborsEnd(t_anchor); ++nb) {
        if (!try_candidate(nb->vertex)) return false;
      }
    } else {
      for (VertexId tv = 0; tv < target_csr_.NumVertices(); ++tv) {
        if (!try_candidate(tv)) return false;
      }
    }
    return true;
  }

  const Graph& pattern_;
  const Graph& target_;
  MatchOptions options_;
  CsrGraph pattern_csr_;
  CsrGraph target_csr_;
  std::vector<uint32_t> pattern_degree_;
  std::vector<VertexId> order_;
  std::vector<int> anchor_;
  std::vector<VertexId> mapping_;
  std::vector<bool> used_;
  uint64_t steps_ = 0;
  bool hit_step_limit_ = false;

  static constexpr VertexId kUnmapped = 0xFFFFFFFFu;
};

}  // namespace oracle
}  // namespace vqi

#endif  // VQLIB_TESTS_VF2_ORACLE_H_
