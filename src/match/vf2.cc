#include "match/vf2.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace vqi {

SubgraphMatcher::SubgraphMatcher(const Graph& pattern, const Graph& target,
                                 MatchOptions options)
    : SubgraphMatcher(pattern, target, nullptr, options) {}

SubgraphMatcher::SubgraphMatcher(const Graph& pattern, const Graph& target,
                                 std::shared_ptr<const MatchIndex> index,
                                 MatchOptions options)
    : options_(options),
      pattern_csr_(pattern),
      index_(index != nullptr ? std::move(index) : MatchIndex::Build(target)),
      tcsr_(&index_->csr),
      candidates_(&index_->candidates) {
  // Label-bucket seeding and signature subsumption compare labels exactly, so
  // they are only sound when vertex labels are matched and dummies are not
  // wildcards; the degree filter is structural and always sound.
  label_filters_ = options_.match_vertex_labels && !options_.dummy_is_wildcard;

  const size_t n = pattern_csr_.NumVertices();
  pattern_degree_.resize(n);
  for (VertexId v = 0; v < n; ++v) pattern_degree_[v] = pattern_csr_.Degree(v);
  if (label_filters_) {
    pattern_sig_.assign(n, 0);
    pattern_repeat_sig_.assign(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      uint64_t sig = 0;
      uint64_t repeat = 0;
      for (const Neighbor* nb = pattern_csr_.NeighborsBegin(v);
           nb != pattern_csr_.NeighborsEnd(v); ++nb) {
        uint64_t bit =
            CandidateIndex::LabelBit(pattern_csr_.VertexLabel(nb->vertex));
        repeat |= sig & bit;
        sig |= bit;
      }
      pattern_sig_[v] = sig;
      pattern_repeat_sig_[v] = repeat;
    }
  }
  mapping_.assign(n, kUnmapped);
  used_.assign(tcsr_->NumVertices(), false);
  ComputeOrder();
}

void SubgraphMatcher::ComputeOrder() {
  size_t n = pattern_csr_.NumVertices();
  order_.clear();
  anchor_.assign(n, -1);
  if (n == 0) return;

  std::vector<bool> placed(n, false);
  VertexId start = 0;
  // Seed from the rarest pattern vertex: the one with the fewest viable
  // target candidates |{tv : label(tv) == label(v), deg(tv) >= deg(v)}|,
  // read off the index's per-label degree runs. Ties prefer higher degree (a
  // stronger anchor for the rest of the order), then lower id for
  // determinism. When label seeding is unsound (wildcards, labels ignored)
  // the start is the highest-degree vertex. tests/vf2_oracle.h computes the
  // same widths by a full scan, so both searches use one order.
  if (label_filters_) {
    size_t best_width = std::numeric_limits<size_t>::max();
    for (VertexId v = 0; v < n; ++v) {
      size_t width = candidates_->CountCandidates(pattern_csr_.VertexLabel(v),
                                                  pattern_degree_[v]);
      if (width < best_width ||
          (width == best_width &&
           pattern_degree_[v] > pattern_degree_[start])) {
        start = v;
        best_width = width;
      }
    }
  } else {
    // Highest-degree vertex: a strong static heuristic at pattern scale.
    for (VertexId v = 1; v < n; ++v) {
      if (pattern_degree_[v] > pattern_degree_[start]) start = v;
    }
  }
  order_.push_back(start);
  placed[start] = true;

  while (order_.size() < n) {
    // Next: unplaced vertex with the most placed neighbors (connectivity
    // first), degree as tiebreak. Falls back to any unplaced vertex for
    // disconnected patterns.
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
    // Remember one already-placed neighbor: its image anchors the candidate
    // set for v.
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

bool SubgraphMatcher::Feasible(VertexId pu, VertexId tv) const {
  auto labels_compatible = [&](Label a, Label b) {
    if (a == b) return true;
    return options_.dummy_is_wildcard &&
           (a == kDummyLabel || b == kDummyLabel);
  };
  if (options_.match_vertex_labels &&
      !labels_compatible(pattern_csr_.VertexLabel(pu),
                         tcsr_->VertexLabel(tv))) {
    return false;
  }
  if (pattern_degree_[pu] > tcsr_->Degree(tv)) return false;
  // Every pattern edge from pu to an already-mapped vertex must exist in the
  // target (with a matching label); for induced matching, mapped non-edges
  // must stay non-edges.
  for (const Neighbor* nb = pattern_csr_.NeighborsBegin(pu);
       nb != pattern_csr_.NeighborsEnd(pu); ++nb) {
    VertexId mapped = mapping_[nb->vertex];
    if (mapped == kUnmapped) continue;
    std::optional<Label> elabel = tcsr_->EdgeLabel(tv, mapped);
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
          tcsr_->HasEdge(tv, mapping_[pv])) {
        return false;
      }
    }
  }
  return true;
}

bool SubgraphMatcher::IndexAdmits(VertexId pu, VertexId tv) const {
  if (tcsr_->Degree(tv) < pattern_degree_[pu]) return false;
  if (label_filters_) {
    if (pattern_csr_.VertexLabel(pu) != tcsr_->VertexLabel(tv)) return false;
    if (!CandidateIndex::SignatureSubsumes(
            pattern_sig_[pu], candidates_->NeighborhoodSignature(tv))) {
      return false;
    }
    if (!CandidateIndex::SignatureSubsumes(
            pattern_repeat_sig_[pu],
            candidates_->NeighborhoodRepeatSignature(tv))) {
      return false;
    }
  }
  return true;
}

bool SubgraphMatcher::Recurse(
    size_t depth, const std::function<bool(const Embedding&)>& cb,
    uint64_t* found) {
  // A step is one unit of matcher work: a node expansion (this check) or a
  // feasibility probe on a candidate (the check in try_candidate below).
  // Counting probes is what lets the candidate index show up in the step
  // budget — its O(1) admission filters reject candidates before they cost a
  // probe. The budget check precedes every increment and aborts immediately,
  // so for any budget B: hit_step_limit ⟺ (full-run steps > B), and the
  // run's prefix up to the abort is identical to the unbudgeted run.
  // Candidates are visited in plain-scan order (anchor neighbours by id,
  // anchorless depths by id within the label bucket), so an unfiltered
  // search emits the same embeddings in the same sequence, only later.
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
    // Candidates: target neighbors of the anchor's image.
    VertexId t_anchor = mapping_[order_[static_cast<size_t>(anchor)]];
    for (const Neighbor* nb = tcsr_->NeighborsBegin(t_anchor);
         nb != tcsr_->NeighborsEnd(t_anchor); ++nb) {
      if (!IndexAdmits(pu, nb->vertex)) continue;
      if (!try_candidate(nb->vertex)) return false;
    }
  } else if (label_filters_) {
    // Anchorless depth: the label bucket, in id order, replaces the full
    // vertex scan.
    CandidateIndex::Range range =
        candidates_->VerticesWithLabel(pattern_csr_.VertexLabel(pu));
    for (const VertexId* tv = range.begin; tv != range.end; ++tv) {
      if (!IndexAdmits(pu, *tv)) continue;
      if (!try_candidate(*tv)) return false;
    }
  } else {
    for (VertexId tv = 0; tv < tcsr_->NumVertices(); ++tv) {
      if (!IndexAdmits(pu, tv)) continue;
      if (!try_candidate(tv)) return false;
    }
  }
  return true;
}

bool SubgraphMatcher::Exists() {
  if (pattern_csr_.NumVertices() == 0) return true;
  if (pattern_csr_.NumVertices() > tcsr_->NumVertices() ||
      pattern_csr_.NumEdges() > tcsr_->NumEdges()) {
    return false;
  }
  uint64_t found = 0;
  steps_ = 0;
  hit_step_limit_ = false;
  Recurse(0, [](const Embedding&) { return false; }, &found);
  return found > 0;
}

std::optional<Embedding> SubgraphMatcher::FindOne() {
  std::optional<Embedding> result;
  if (pattern_csr_.NumVertices() == 0) return Embedding{};
  if (pattern_csr_.NumVertices() > tcsr_->NumVertices() ||
      pattern_csr_.NumEdges() > tcsr_->NumEdges()) {
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

uint64_t SubgraphMatcher::CountEmbeddings() {
  return Enumerate([](const Embedding&) { return true; });
}

uint64_t SubgraphMatcher::Enumerate(
    const std::function<bool(const Embedding&)>& callback) {
  if (pattern_csr_.NumVertices() == 0) return 0;
  if (pattern_csr_.NumVertices() > tcsr_->NumVertices() ||
      pattern_csr_.NumEdges() > tcsr_->NumEdges()) {
    return 0;
  }
  uint64_t found = 0;
  steps_ = 0;
  hit_step_limit_ = false;
  Recurse(0, callback, &found);
  return found;
}

bool ContainsSubgraph(const Graph& target, const Graph& pattern,
                      const MatchOptions& options) {
  return SubgraphMatcher(pattern, target, options).Exists();
}

uint64_t CountEmbeddings(const Graph& target, const Graph& pattern,
                         uint64_t cap, const MatchOptions& options) {
  MatchOptions opts = options;
  opts.max_embeddings = cap;
  return SubgraphMatcher(pattern, target, opts).CountEmbeddings();
}

}  // namespace vqi
