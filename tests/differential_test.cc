// Differential harness for the matcher: the engine (CSR adjacency plus
// CandidateIndex pruning over a MatchIndex) must be the legacy search of
// tests/vf2_oracle.h with only embedding-free branches cut. Three contracts
// are pinned per seeded (pattern, target) pair:
//
//  1. The embedding *sequence* is identical — same embeddings, same order —
//     on unbudgeted runs and on runs capped by max_embeddings.
//  2. For any max_steps budget B, the oracle's budgeted sequence is a prefix
//     of the engine's, and an engine hit implies an oracle hit. Both flags
//     mirror budget exhaustion exactly: hit ⟺ (full-run steps > B).
//  3. The index only prunes: engine steps <= oracle steps on every pair.
//
// Pairs are drawn from the BA / WS / molecule generators at mixed label
// alphabet sizes, with induced and edge-label-insensitive variants mixed in.
// Everything is seeded — failures reproduce deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"
#include "vf2_oracle.h"

namespace vqi {
namespace {

// Full-run safety budget: pairs whose oracle enumeration exceeds this are
// skipped for full-sequence equality (tallied below; the seeds keep this
// rare).
constexpr uint64_t kStepBudget = 300000;
// Sequences longer than this are compared on their first kSeqCap entries
// (plus the total count).
constexpr size_t kSeqCap = 30000;

struct TestPair {
  std::string name;
  Graph pattern;
  Graph target;
  MatchOptions options;  // budgets and caps overridden per run below
};

struct RunResult {
  uint64_t count = 0;
  uint64_t steps = 0;
  bool hit_limit = false;
  std::vector<Embedding> embeddings;  // first kSeqCap, in emission order
};

template <typename Matcher>
RunResult Run(Matcher& matcher) {
  RunResult run;
  run.count = matcher.Enumerate([&run](const Embedding& e) {
    if (run.embeddings.size() < kSeqCap) run.embeddings.push_back(e);
    return true;
  });
  run.steps = matcher.steps();
  run.hit_limit = matcher.hit_step_limit();
  return run;
}

MatchOptions Budgeted(const TestPair& pair, uint64_t max_steps,
                      uint64_t max_embeddings) {
  MatchOptions options = pair.options;
  options.max_steps = max_steps;
  options.max_embeddings = max_embeddings;
  return options;
}

RunResult RunEngine(const TestPair& pair, uint64_t max_steps,
                    uint64_t max_embeddings = 0) {
  SubgraphMatcher matcher(pair.pattern, pair.target,
                          Budgeted(pair, max_steps, max_embeddings));
  return Run(matcher);
}

RunResult RunOracle(const TestPair& pair, uint64_t max_steps,
                    uint64_t max_embeddings = 0) {
  oracle::LegacyMatcher matcher(pair.pattern, pair.target,
                                Budgeted(pair, max_steps, max_embeddings));
  return Run(matcher);
}

bool IsPrefix(const std::vector<Embedding>& prefix,
              const std::vector<Embedding>& whole) {
  return prefix.size() <= whole.size() &&
         std::equal(prefix.begin(), prefix.end(), whole.begin());
}

std::vector<TestPair> MakePairs() {
  std::vector<TestPair> pairs;
  Rng rng(0xD1FFE7E57ull);

  auto add_patterns = [&](const Graph& target, const std::string& base,
                          size_t count, size_t min_edges, size_t max_edges) {
    for (size_t i = 0; i < count; ++i) {
      size_t edges = min_edges + rng.UniformInt(max_edges - min_edges + 1);
      std::optional<Graph> pattern;
      for (int attempt = 0; attempt < 5 && !pattern.has_value(); ++attempt) {
        pattern = RandomConnectedSubgraph(target, edges, rng);
      }
      if (!pattern.has_value()) continue;
      TestPair pair;
      pair.name = base + "/p" + std::to_string(i);
      pair.pattern = std::move(*pattern);
      pair.target = target;
      // Mix matching semantics across the corpus: every 5th pair induced,
      // every 7th ignoring edge labels.
      pair.options.induced = pairs.size() % 5 == 4;
      pair.options.match_edge_labels = pairs.size() % 7 != 6;
      pairs.push_back(std::move(pair));
    }
  };

  // Barabási–Albert: heavy-tailed degrees, mixed label alphabets.
  for (size_t n : {40u, 90u, 150u}) {
    for (size_t m : {2u, 3u}) {
      for (size_t num_labels : {2u, 5u, 9u}) {
        gen::LabelConfig labels;
        labels.num_vertex_labels = num_labels;
        labels.num_edge_labels = num_labels >= 5 ? 3 : 1;
        Graph target = gen::BarabasiAlbert(n, m, labels, rng);
        add_patterns(target,
                     "ba/n" + std::to_string(n) + "m" + std::to_string(m) +
                         "l" + std::to_string(num_labels),
                     6, 2, 6);
      }
    }
  }

  // Watts–Strogatz: high clustering.
  for (size_t n : {40u, 120u}) {
    for (size_t k : {4u, 6u}) {
      for (size_t num_labels : {3u, 8u}) {
        gen::LabelConfig labels;
        labels.num_vertex_labels = num_labels;
        labels.num_edge_labels = 2;
        Graph target = gen::WattsStrogatz(n, k, 0.1, labels, rng);
        add_patterns(target,
                     "ws/n" + std::to_string(n) + "k" + std::to_string(k) +
                         "l" + std::to_string(num_labels),
                     6, 2, 6);
      }
    }
  }

  // Molecules: skewed atom/bond alphabets; half the patterns come from a
  // *different* molecule, so empty and near-empty result sets are covered.
  GraphDatabase molecules = gen::MoleculeDatabase(24, {}, 0xBEEF);
  const std::vector<Graph>& mols = molecules.graphs();
  for (size_t i = 0; i < mols.size(); ++i) {
    add_patterns(mols[i], "mol/self" + std::to_string(i), 1, 2, 5);
    const Graph& other = mols[(i + 7) % mols.size()];
    std::optional<Graph> cross;
    for (int attempt = 0; attempt < 5 && !cross.has_value(); ++attempt) {
      cross = RandomConnectedSubgraph(other, 2 + rng.UniformInt(4), rng);
    }
    if (cross.has_value()) {
      TestPair pair;
      pair.name = "mol/cross" + std::to_string(i);
      pair.pattern = std::move(*cross);
      pair.target = mols[i];
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

TEST(DifferentialTest, CorpusHasTargetSize) {
  // The harness is only meaningful at volume; guard against generator
  // changes silently shrinking the corpus.
  EXPECT_GE(MakePairs().size(), 190u);
}

TEST(DifferentialTest, IndexedMatchesLegacyOracleOnSeededCorpus) {
  std::vector<TestPair> pairs = MakePairs();
  size_t verified = 0;
  size_t skipped_over_budget = 0;
  for (const TestPair& pair : pairs) {
    SCOPED_TRACE(pair.name);
    RunResult legacy = RunOracle(pair, kStepBudget);
    if (legacy.hit_limit) {
      // Too expensive to enumerate fully at this seed; the budgeted
      // contract for heavy pairs is covered by StepLimitBehaviorIsIdentical.
      ++skipped_over_budget;
      continue;
    }
    RunResult indexed = RunEngine(pair, kStepBudget);
    ASSERT_FALSE(indexed.hit_limit);

    // Contract 3: pruning only ever shrinks the search tree.
    EXPECT_LE(indexed.steps, legacy.steps);
    // Contract 1: identical sequences, not just identical sets.
    ASSERT_EQ(indexed.count, legacy.count);
    ASSERT_EQ(indexed.embeddings, legacy.embeddings);

    // Capped runs stop after the same embeddings, so FindOne and capped
    // counts return what the oracle returns.
    for (uint64_t cap : {uint64_t{1}, uint64_t{3}, legacy.count / 2}) {
      if (cap == 0) continue;
      RunResult legacy_capped = RunOracle(pair, 0, cap);
      RunResult indexed_capped = RunEngine(pair, 0, cap);
      EXPECT_EQ(indexed_capped.count, legacy_capped.count);
      EXPECT_EQ(indexed_capped.embeddings, legacy_capped.embeddings);
      EXPECT_LE(indexed_capped.steps, legacy_capped.steps);
    }
    SubgraphMatcher engine(pair.pattern, pair.target, pair.options);
    oracle::LegacyMatcher reference(pair.pattern, pair.target, pair.options);
    EXPECT_EQ(engine.FindOne(), reference.FindOne());
    EXPECT_EQ(engine.Exists(), reference.Exists());
    ++verified;
  }
  // The corpus must stay overwhelmingly verifiable at full depth.
  EXPECT_GE(verified, 150u);
  EXPECT_LE(skipped_over_budget, pairs.size() / 10);
}

TEST(DifferentialTest, StepLimitBehaviorIsIdentical) {
  std::vector<TestPair> pairs = MakePairs();
  size_t checked = 0;
  Rng rng(0xB4D9E7ull);
  for (const TestPair& pair : pairs) {
    SCOPED_TRACE(pair.name);
    RunResult legacy = RunOracle(pair, kStepBudget);
    RunResult indexed = RunEngine(pair, kStepBudget);
    if (legacy.hit_limit || indexed.hit_limit) continue;

    // Contract 2 at budgets that clip one engine, both, or neither: tight
    // (half of either engine's run), random, exactly enough for each.
    std::vector<uint64_t> budgets = {
        1,
        std::max<uint64_t>(1, indexed.steps / 2),
        std::max<uint64_t>(1, legacy.steps / 2),
        1 + rng.UniformInt(std::max<uint64_t>(1, legacy.steps)),
        std::max<uint64_t>(1, indexed.steps),
        std::max<uint64_t>(1, legacy.steps)};
    for (uint64_t budget : budgets) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      RunResult legacy_b = RunOracle(pair, budget);
      RunResult indexed_b = RunEngine(pair, budget);
      // Both flags mirror budget exhaustion exactly.
      EXPECT_EQ(legacy_b.hit_limit, legacy.steps > budget);
      EXPECT_EQ(indexed_b.hit_limit, indexed.steps > budget);
      // The index only prunes, so an engine clip implies an oracle clip and
      // the engine gets at least as far down the same sequence.
      if (indexed_b.hit_limit) {
        EXPECT_TRUE(legacy_b.hit_limit);
      }
      EXPECT_TRUE(IsPrefix(legacy_b.embeddings, indexed_b.embeddings));
      EXPECT_TRUE(IsPrefix(indexed_b.embeddings, indexed.embeddings));
      EXPECT_LE(legacy_b.count, indexed_b.count);
      EXPECT_LE(indexed_b.steps, budget);
      if (!indexed_b.hit_limit) {
        EXPECT_EQ(indexed_b.count, indexed.count);
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 150u);
}

TEST(DifferentialTest, WildcardDummySemanticsAgree) {
  // Closure-graph semantics: dummy labels match anything, which disables the
  // index's label filters — degree pruning must still agree with the
  // oracle, embedding for embedding.
  Rng rng(0x5EED);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 4;
  Graph target = gen::BarabasiAlbert(60, 2, labels, rng);
  for (size_t i = 0; i < 10; ++i) {
    std::optional<Graph> pattern =
        RandomConnectedSubgraph(target, 3 + rng.UniformInt(3), rng);
    if (!pattern.has_value()) continue;
    // Blank out one pattern vertex per draw.
    pattern->SetVertexLabel(
        static_cast<VertexId>(rng.UniformInt(pattern->NumVertices())),
        kDummyLabel);
    TestPair pair;
    pair.name = "wildcard/p" + std::to_string(i);
    SCOPED_TRACE(pair.name);
    pair.pattern = std::move(*pattern);
    pair.target = target;
    pair.options.dummy_is_wildcard = true;
    RunResult legacy = RunOracle(pair, kStepBudget);
    RunResult indexed = RunEngine(pair, kStepBudget);
    ASSERT_FALSE(legacy.hit_limit);
    ASSERT_FALSE(indexed.hit_limit);
    EXPECT_LE(indexed.steps, legacy.steps);
    ASSERT_EQ(indexed.count, legacy.count);
    ASSERT_EQ(indexed.embeddings, legacy.embeddings);
  }
}

}  // namespace
}  // namespace vqi
