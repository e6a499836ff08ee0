#include "metrics/log_utility.h"

#include <algorithm>
#include <memory>

#include "match/vf2.h"

namespace vqi {

std::vector<double> PatternLogUtilities(const std::vector<Graph>& query_log,
                                        const std::vector<Graph>& patterns) {
  std::vector<double> utilities(patterns.size(), 0.0);
  if (query_log.empty()) return utilities;
  std::vector<size_t> helpful(patterns.size(), 0);
  for (const Graph& query : query_log) {
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(query);
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (patterns[i].NumEdges() > query.NumEdges()) continue;
      if (SubgraphMatcher(patterns[i], query, index).Exists()) ++helpful[i];
    }
  }
  for (size_t i = 0; i < patterns.size(); ++i) {
    utilities[i] =
        static_cast<double>(helpful[i]) / static_cast<double>(query_log.size());
  }
  return utilities;
}

std::vector<size_t> LogAwareGreedySelect(
    const std::vector<ScoredCandidate>& candidates,
    const std::vector<Graph>& query_log, size_t budget, size_t universe_size,
    const ScoreWeights& weights, const LogAwareConfig& config) {
  if (query_log.empty()) {
    return GreedySelect(candidates, budget, universe_size, weights);
  }
  // Extended universe: repository bits, then log_replication bits per
  // logged query.
  size_t replication = std::max<size_t>(1, config.log_replication);
  size_t extended_size = universe_size + replication * query_log.size();
  std::vector<ScoredCandidate> extended;
  extended.reserve(candidates.size());
  for (const ScoredCandidate& c : candidates) {
    ScoredCandidate e;
    e.pattern = c.pattern;
    e.feature = c.feature;
    e.load = c.load;
    e.coverage = Bitset(extended_size);
    for (size_t b = 0; b < universe_size; ++b) {
      if (c.coverage.Test(b)) e.coverage.Set(b);
    }
    extended.push_back(std::move(e));
  }
  for (size_t q = 0; q < query_log.size(); ++q) {
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(query_log[q]);
    for (ScoredCandidate& e : extended) {
      if (e.pattern.NumEdges() > query_log[q].NumEdges()) continue;
      if (!SubgraphMatcher(e.pattern, query_log[q], index).Exists()) continue;
      for (size_t r = 0; r < replication; ++r) {
        e.coverage.Set(universe_size + q * replication + r);
      }
    }
  }
  return GreedySelect(extended, budget, extended_size, weights);
}

}  // namespace vqi
