#include "match/candidate_index.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

namespace vqi {

CandidateIndex CandidateIndex::Build(const CsrGraph& csr) {
  CandidateIndex index;
  const size_t n = csr.NumVertices();

  index.signatures_.assign(n, 0);
  index.repeat_signatures_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t sig = 0;
    uint64_t repeat = 0;
    for (const Neighbor* nb = csr.NeighborsBegin(v); nb != csr.NeighborsEnd(v);
         ++nb) {
      uint64_t bit = LabelBit(csr.VertexLabel(nb->vertex));
      repeat |= sig & bit;  // second sighting of this label class
      sig |= bit;
    }
    index.signatures_[v] = sig;
    index.repeat_signatures_[v] = repeat;
  }

  // Group vertices by label, keeping id order inside each run: anchorless
  // search depths walk a run in the order a full vertex scan would.
  index.bucket_vertices_.resize(n);
  std::iota(index.bucket_vertices_.begin(), index.bucket_vertices_.end(), 0u);
  std::stable_sort(index.bucket_vertices_.begin(),
                   index.bucket_vertices_.end(),
                   [&csr](VertexId a, VertexId b) {
                     return csr.VertexLabel(a) < csr.VertexLabel(b);
                   });
  index.bucket_degrees_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    index.bucket_degrees_[i] = csr.Degree(index.bucket_vertices_[i]);
  }
  for (size_t i = 0; i < n;) {
    Label label = csr.VertexLabel(index.bucket_vertices_[i]);
    size_t j = i + 1;
    while (j < n && csr.VertexLabel(index.bucket_vertices_[j]) == label) ++j;
    index.buckets_[label] = {static_cast<uint32_t>(i), static_cast<uint32_t>(j)};
    std::sort(index.bucket_degrees_.begin() + static_cast<ptrdiff_t>(i),
              index.bucket_degrees_.begin() + static_cast<ptrdiff_t>(j));
    i = j;
  }
  return index;
}

CandidateIndex::Range CandidateIndex::VerticesWithLabel(Label label) const {
  auto it = buckets_.find(label);
  if (it == buckets_.end()) return {};
  const VertexId* base = bucket_vertices_.data();
  return {base + it->second.first, base + it->second.second};
}

size_t CandidateIndex::CountCandidates(Label label,
                                       uint32_t min_degree) const {
  auto it = buckets_.find(label);
  if (it == buckets_.end()) return 0;
  const uint32_t* deg_begin = bucket_degrees_.data() + it->second.first;
  const uint32_t* deg_end = bucket_degrees_.data() + it->second.second;
  return static_cast<size_t>(
      deg_end - std::lower_bound(deg_begin, deg_end, min_degree));
}

std::shared_ptr<const MatchIndex> MatchIndex::Build(const Graph& g) {
  auto index = std::make_shared<MatchIndex>();
  index->csr = CsrGraph(g);
  index->candidates = CandidateIndex::Build(index->csr);
  return index;
}

std::shared_ptr<const MatchIndex> MatchIndexCache::Get(
    const GraphDatabase& db, GraphId id) {
  if (!db.Contains(id)) return nullptr;
  const uint64_t version = db.ContentVersion(id);
  {
    MutexLock lock(&mutex_);
    auto it = entries_.find(id);
    if (it != entries_.end() && it->second.version == version &&
        it->second.index != nullptr) {
      return it->second.index;
    }
  }
  // Build outside the lock: index construction is O(n log n + m) and must
  // not serialize readers of other graphs.
  std::shared_ptr<const MatchIndex> built = MatchIndex::Build(db.Get(id));
  builds_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&mutex_);
    Entry& entry = entries_[id];
    entry.version = version;
    entry.index = built;
    // Cheap tombstone sweep: drop entries for ids that left the database so
    // a long-lived service with churn does not accumulate dead indexes.
    if (entries_.size() > 2 * db.size() + 16) {
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (!db.Contains(it->first)) {
          it = entries_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  return built;
}

}  // namespace vqi
