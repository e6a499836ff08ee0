#include "oracle.h"

#include <algorithm>
#include <deque>

namespace vqibench {
namespace {

using vqi::Graph;
using vqi::Label;
using vqi::VertexId;

constexpr VertexId kFree = static_cast<VertexId>(-1);

// Backtracking over a fixed pattern order in which every vertex after the
// first has an earlier neighbour (its anchor), so candidates come from the
// anchor image's adjacency instead of the whole target.
class Counter {
 public:
  Counter(const Graph& pattern, const Graph& target, uint64_t cap)
      : p_(pattern), t_(target), cap_(cap),
        image_(pattern.NumVertices(), kFree),
        used_(target.NumVertices(), 0) {
    Order();
  }

  uint64_t Run() {
    if (p_.NumVertices() == 0 || p_.NumVertices() > t_.NumVertices()) return 0;
    Extend(0);
    return count_;
  }

 private:
  void Order() {
    const size_t n = p_.NumVertices();
    std::vector<char> placed(n, 0);
    anchor_.assign(n, kFree);
    while (order_.size() < n) {
      // Start each component at its highest-degree vertex.
      VertexId root = kFree;
      for (VertexId v = 0; v < n; ++v) {
        if (!placed[v] && (root == kFree || p_.Degree(v) > p_.Degree(root))) {
          root = v;
        }
      }
      std::deque<VertexId> queue{root};
      placed[root] = 1;
      while (!queue.empty()) {
        VertexId u = queue.front();
        queue.pop_front();
        order_.push_back(u);
        for (const vqi::Neighbor& nb : p_.Neighbors(u)) {
          if (!placed[nb.vertex]) {
            placed[nb.vertex] = 1;
            anchor_[nb.vertex] = u;
            queue.push_back(nb.vertex);
          }
        }
      }
    }
  }

  bool Consistent(VertexId pu, VertexId tv) const {
    if (p_.VertexLabel(pu) != t_.VertexLabel(tv) || used_[tv]) return false;
    for (const vqi::Neighbor& nb : p_.Neighbors(pu)) {
      VertexId mapped = image_[nb.vertex];
      if (mapped == kFree) continue;
      std::optional<Label> label = t_.EdgeLabel(tv, mapped);
      if (!label.has_value() || *label != nb.edge_label) return false;
    }
    return true;
  }

  // Returns false once the cap is reached.
  bool Extend(size_t depth) {
    if (depth == order_.size()) {
      ++count_;
      return cap_ == 0 || count_ < cap_;
    }
    VertexId pu = order_[depth];
    auto attempt = [&](VertexId tv) {
      if (!Consistent(pu, tv)) return true;
      image_[pu] = tv;
      used_[tv] = 1;
      bool more = Extend(depth + 1);
      used_[tv] = 0;
      image_[pu] = kFree;
      return more;
    };
    if (anchor_[pu] == kFree) {
      for (VertexId tv = 0; tv < t_.NumVertices(); ++tv) {
        if (!attempt(tv)) return false;
      }
      return true;
    }
    for (const vqi::Neighbor& nb : t_.Neighbors(image_[anchor_[pu]])) {
      if (!attempt(nb.vertex)) return false;
    }
    return true;
  }

  const Graph& p_;
  const Graph& t_;
  const uint64_t cap_;
  std::vector<VertexId> order_;
  std::vector<VertexId> anchor_;
  std::vector<VertexId> image_;
  std::vector<char> used_;
  uint64_t count_ = 0;
};

}  // namespace

uint64_t OracleEmbeddings(const Graph& pattern, const Graph& target,
                         uint64_t cap) {
  return Counter(pattern, target, cap).Run();
}

bool OracleConnected(const Graph& g) {
  if (g.NumVertices() == 0) return false;
  std::vector<char> seen(g.NumVertices(), 0);
  std::vector<VertexId> stack{0};
  seen[0] = 1;
  size_t reached = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (const vqi::Neighbor& nb : g.Neighbors(v)) {
      if (!seen[nb.vertex]) {
        seen[nb.vertex] = 1;
        ++reached;
        stack.push_back(nb.vertex);
      }
    }
  }
  return reached == g.NumVertices();
}

void AddTriples(const Graph& g, TripleCounts* counts) {
  // One occurrence per edge and distinct orientation: an edge between two
  // equal labels is one continuation, not two.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const vqi::Neighbor& nb : g.Neighbors(v)) {
      Label from = g.VertexLabel(v);
      Label to = g.VertexLabel(nb.vertex);
      if (v < nb.vertex || from != to) ++(*counts)[{from, nb.edge_label, to}];
    }
  }
}

TripleCounts CountTriples(const vqi::GraphDatabase& db) {
  TripleCounts counts;
  for (const Graph& g : db.graphs()) AddTriples(g, &counts);
  return counts;
}

std::vector<Suggestion> TopSuggestions(const TripleCounts& counts, Label from,
                                       size_t k) {
  std::vector<Suggestion> out;
  for (const auto& [key, support] : counts) {
    if (std::get<0>(key) == from) {
      out.push_back({std::get<1>(key), std::get<2>(key), support});
    }
  }
  std::sort(out.begin(), out.end(), [](const Suggestion& a, const Suggestion& b) {
    if (a.support != b.support) return a.support > b.support;
    return std::tie(a.edge, a.to) < std::tie(b.edge, b.to);
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void AddLabels(const Graph& g, LabelCounts* counts) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ++counts->vertices[g.VertexLabel(v)];
    for (const vqi::Neighbor& nb : g.Neighbors(v)) {
      if (v < nb.vertex) ++counts->edges[nb.edge_label];
    }
  }
}

}  // namespace vqibench
