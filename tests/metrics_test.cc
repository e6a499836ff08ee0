#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/bitset.h"
#include "common/rng.h"
#include "match/similarity_search.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"
#include "metrics/cognitive_load.h"
#include "metrics/coverage.h"
#include "metrics/diversity.h"
#include "metrics/log_utility.h"
#include "metrics/pattern_score.h"
#include "vf2_oracle.h"

namespace vqi {
namespace {

TEST(BitsetTest, SetTestCount) {
  Bitset b(130);
  EXPECT_EQ(b.Count(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, UnionOps) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_EQ(a.UnionCount(b), 3u);
  EXPECT_EQ(a.NewBits(b), 1u);
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 3u);
}

GraphDatabase CoverageDb() {
  GraphDatabase db;
  db.Add(builder::Triangle(/*vlabel=*/0));  // covered by triangle + edge
  db.Add(builder::Path(3, /*vlabel=*/0));   // covered by edge only
  db.Add(builder::Path(2, /*vlabel=*/1));   // different label
  return db;
}

TEST(CoverageTest, DbCoverageFractions) {
  GraphDatabase db = CoverageDb();
  EXPECT_NEAR(DbCoverage(db, builder::Triangle(0)), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(DbCoverage(db, builder::SingleEdge(0, 0)), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(DbCoverage(db, builder::SingleEdge(1, 1)), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(DbCoverage(db, builder::Clique(4)), 0.0, 1e-9);
}

TEST(CoverageTest, SetCoverageUnion) {
  GraphDatabase db = CoverageDb();
  std::vector<Graph> set = {builder::SingleEdge(0, 0),
                            builder::SingleEdge(1, 1)};
  EXPECT_NEAR(DbSetCoverage(db, set), 1.0, 1e-9);
  EXPECT_NEAR(DbSetCoverage(db, {}), 0.0, 1e-9);
}

TEST(CoverageTest, BitsMatchCoverage) {
  GraphDatabase db = CoverageDb();
  Bitset bits = CoverageBits(db, builder::SingleEdge(0, 0));
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(1));
  EXPECT_FALSE(bits.Test(2));
}

TEST(CoverageTest, NetworkEdgeCoverage) {
  // Pattern = triangle; network = triangle + pendant path. Only the three
  // triangle edges are coverable.
  Graph g = builder::Triangle();
  VertexId t = g.AddVertex(0);
  g.AddEdge(0, t);
  std::vector<Edge> edges = g.Edges();
  Bitset bits = NetworkCoverageBits(g, edges, builder::Triangle());
  EXPECT_EQ(bits.Count(), 3u);
  double frac = NetworkSetCoverage(g, {builder::Triangle()});
  EXPECT_NEAR(frac, 3.0 / 4.0, 1e-9);
}

TEST(CoverageTest, NetworkCoverageBudgeted) {
  Rng rng(3);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 1;
  Graph g = gen::WattsStrogatz(200, 3, 0.05, labels, rng);
  NetworkCoverageOptions opts;
  opts.max_embeddings = 4;  // tiny budget -> partial coverage
  std::vector<Edge> edges = g.Edges();
  Bitset small = NetworkCoverageBits(g, edges, builder::Triangle(), opts);
  opts.max_embeddings = 100000;
  opts.max_steps = 10000000;
  Bitset big = NetworkCoverageBits(g, edges, builder::Triangle(), opts);
  EXPECT_LE(small.Count(), big.Count());
  EXPECT_GT(big.Count(), 0u);
}

// The same embeddings as NetworkCoverageBits, each pattern edge located by
// a linear scan of the edge list.
Bitset BruteForceNetworkCoverage(const Graph& network,
                                 const std::vector<Edge>& edges,
                                 const Graph& pattern,
                                 const NetworkCoverageOptions& options) {
  Bitset bits(edges.size());
  if (pattern.NumEdges() == 0) return bits;
  MatchOptions match;
  match.match_vertex_labels = options.match_vertex_labels;
  match.max_embeddings = options.max_embeddings;
  match.max_steps = options.max_steps;
  SubgraphMatcher matcher(pattern, network, match);
  std::vector<Edge> pattern_edges = pattern.Edges();
  matcher.Enumerate([&](const Embedding& embedding) {
    for (const Edge& pe : pattern_edges) {
      VertexId a = embedding[pe.u], b = embedding[pe.v];
      for (size_t i = 0; i < edges.size(); ++i) {
        if ((edges[i].u == a && edges[i].v == b) ||
            (edges[i].u == b && edges[i].v == a)) {
          bits.Set(i);
        }
      }
    }
    return true;
  });
  return bits;
}

TEST(CoverageTest, NetworkCoverageMatchesBruteForceLookup) {
  Rng rng(21);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  Graph network = gen::BarabasiAlbert(400, 3, labels, rng);
  std::vector<Edge> edges = network.Edges();
  std::vector<Graph> patterns = {
      Graph(),                          // empty pattern
      builder::FromLists({0}, {}),      // one vertex, no edges
      builder::SingleEdge(7, 7),        // label absent: 0 embeddings
      builder::SingleEdge(0, 1),
      builder::Path(3, 0),
      builder::Triangle(0),
      builder::Star(3, 0),
  };
  for (size_t edges_in_sample : {2, 3, 4}) {
    for (int s = 0; s < 4; ++s) {
      auto sample = RandomConnectedSubgraph(network, edges_in_sample, rng);
      if (sample.has_value()) patterns.push_back(std::move(*sample));
    }
  }
  NetworkCoverageOptions options;
  size_t nonempty = 0;
  for (const Graph& pattern : patterns) {
    Bitset got = NetworkCoverageBits(network, edges, pattern, options);
    Bitset want = BruteForceNetworkCoverage(network, edges, pattern, options);
    EXPECT_EQ(got.size(), edges.size());
    EXPECT_TRUE(got == want) << "pattern with " << pattern.NumVertices()
                             << " vertices, " << pattern.NumEdges()
                             << " edges: " << got.Count() << " vs "
                             << want.Count() << " bits";
    if (pattern.NumEdges() == 0 || pattern.VertexLabel(0) == 7) {
      EXPECT_EQ(got.Count(), 0u);
    }
    if (got.Count() > 0) ++nonempty;
  }
  EXPECT_GE(nonempty, 8u);
}

TEST(CoverageTest, NetworkCoverageMatchesTheOracleSequence) {
  // At the default cap of 256 embeddings the coverage bits depend on which
  // embeddings are enumerated first, so they agree with the unindexed
  // oracle only if the engine emits the oracle's sequence. Patterns whose
  // oracle run hits the step budget are skipped: there the engine, which
  // prunes, may get further on the same budget.
  Rng rng(0xC0FE);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 3;
  Graph network = gen::BarabasiAlbert(3000, 3, labels, rng);
  std::vector<Edge> edges = network.Edges();
  std::map<std::pair<VertexId, VertexId>, size_t> edge_index;
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_index[{edges[i].u, edges[i].v}] = i;
  }
  std::shared_ptr<const MatchIndex> index = MatchIndex::Build(network);
  size_t compared = 0;
  size_t capped = 0;
  size_t budget_bound = 0;
  for (int draw = 0; draw < 40; ++draw) {
    auto pattern = RandomConnectedSubgraph(network, 2 + draw % 4, rng);
    if (!pattern.has_value()) continue;
    NetworkCoverageOptions options;
    options.match_vertex_labels = draw % 5 != 4;
    MatchOptions match;
    match.match_vertex_labels = options.match_vertex_labels;
    match.max_embeddings = options.max_embeddings;
    match.max_steps = options.max_steps;
    oracle::LegacyMatcher oracle(*pattern, network, match);
    Bitset want(edges.size());
    std::vector<Edge> pattern_edges = pattern->Edges();
    uint64_t found = oracle.Enumerate([&](const Embedding& embedding) {
      for (const Edge& pe : pattern_edges) {
        VertexId u = std::min(embedding[pe.u], embedding[pe.v]);
        VertexId v = std::max(embedding[pe.u], embedding[pe.v]);
        want.Set(edge_index.at({u, v}));
      }
      return true;
    });
    if (oracle.hit_step_limit()) {
      ++budget_bound;
      continue;
    }
    SCOPED_TRACE("draw " + std::to_string(draw));
    EXPECT_TRUE(NetworkCoverageBits(network, edges, *pattern, options) ==
                want);
    EXPECT_TRUE(NetworkCoverageBits(network, edges, *pattern, options,
                                    index) == want);
    ++compared;
    if (found == options.max_embeddings) ++capped;
  }
  EXPECT_GE(compared, 30u);
  // The cap must bind often, or the order would not matter.
  EXPECT_GE(capped, 10u);
  EXPECT_LE(budget_bound, 5u);
}

TEST(DiversityTest, IdenticalPatternsZeroDiversity) {
  std::vector<Graph> same = {builder::Triangle(), builder::Triangle(),
                             builder::Triangle()};
  EXPECT_NEAR(SetDiversity(same), 0.0, 1e-9);
}

TEST(DiversityTest, DissimilarPatternsHigherDiversity) {
  std::vector<Graph> varied = {builder::Triangle(), builder::Path(6),
                               builder::Star(5)};
  std::vector<Graph> redundant = {builder::Path(5), builder::Path(6),
                                  builder::Path(7)};
  EXPECT_GT(SetDiversity(varied), SetDiversity(redundant));
}

TEST(DiversityTest, SingletonAndEmptyAreMaxDiverse) {
  EXPECT_DOUBLE_EQ(SetDiversity({}), 1.0);
  EXPECT_DOUBLE_EQ(SetDiversity({builder::Triangle()}), 1.0);
}

TEST(DiversityTest, AgreesWithEditDistanceRanking) {
  // DESIGN.md §5.2 ablation: the cheap graphlet-cosine similarity must agree
  // with exact edit distance about which of two candidates is closer to a
  // reference, on clear-cut cases.
  struct Case {
    Graph reference, close, far;
  };
  std::vector<Case> cases;
  cases.push_back({builder::Cycle(6, 0), builder::Cycle(5, 0),
                   builder::Star(5, 0)});
  cases.push_back({builder::Path(6, 0), builder::Path(5, 0),
                   builder::Clique(4, 0)});
  cases.push_back({builder::Clique(4, 0),
                   [] {  // diamond: clique minus an edge
                     Graph g = builder::Clique(4, 0);
                     g.RemoveEdge(0, 1);
                     return g;
                   }(),
                   builder::Star(3, 0)});
  for (const Case& c : cases) {
    double sim_close = PatternSimilarity(c.reference, c.close);
    double sim_far = PatternSimilarity(c.reference, c.far);
    double ged_close = ExactGraphEditDistance(c.reference, c.close);
    double ged_far = ExactGraphEditDistance(c.reference, c.far);
    ASSERT_LT(ged_close, ged_far);  // the premise of the case
    EXPECT_GT(sim_close, sim_far)
        << "similarity ranking disagrees with edit distance";
  }
}

TEST(DiversityTest, FeatureIsomorphismInvariant) {
  Graph a = builder::FromLists({0, 0, 0, 1}, {{0, 1, 0}, {1, 2, 0}, {0, 2, 0}, {2, 3, 0}});
  Graph b = builder::FromLists({1, 0, 0, 0}, {{1, 2, 0}, {2, 3, 0}, {1, 3, 0}, {3, 0, 0}});
  EXPECT_EQ(PatternStructureFeature(a), PatternStructureFeature(b));
  EXPECT_NEAR(PatternSimilarity(a, b), 1.0, 1e-9);
}

TEST(CognitiveLoadTest, MonotoneInSizeAndDensity) {
  // Bigger patterns load more.
  EXPECT_LT(CognitiveLoad(builder::Path(3)), CognitiveLoad(builder::Path(10)));
  // Denser patterns load more at equal vertex count.
  EXPECT_LT(CognitiveLoad(builder::Cycle(5)), CognitiveLoad(builder::Clique(5)));
}

TEST(CognitiveLoadTest, Bounded) {
  for (const Graph& g :
       {builder::SingleEdge(), builder::Clique(8), builder::Path(30)}) {
    double load = CognitiveLoad(g);
    EXPECT_GE(load, 0.0);
    EXPECT_LE(load, 1.0);
  }
}

TEST(CognitiveLoadTest, SetLoadIsMean) {
  std::vector<Graph> set = {builder::SingleEdge(), builder::Clique(6)};
  double expected =
      (CognitiveLoad(builder::SingleEdge()) + CognitiveLoad(builder::Clique(6))) / 2;
  EXPECT_DOUBLE_EQ(SetCognitiveLoad(set), expected);
  EXPECT_DOUBLE_EQ(SetCognitiveLoad({}), 0.0);
}

ScoredCandidate MakeCandidate(const Graph& pattern, size_t universe,
                              std::vector<size_t> covered_bits) {
  ScoredCandidate c;
  c.pattern = pattern;
  c.coverage = Bitset(universe);
  for (size_t b : covered_bits) c.coverage.Set(b);
  c.feature = PatternStructureFeature(pattern);
  c.load = CognitiveLoad(pattern);
  return c;
}

TEST(PatternScoreTest, EvaluatorIncrementalMatchesBatch) {
  size_t universe = 10;
  ScoreWeights weights;
  std::vector<ScoredCandidate> candidates = {
      MakeCandidate(builder::Triangle(), universe, {0, 1, 2}),
      MakeCandidate(builder::Path(4), universe, {2, 3, 4}),
      MakeCandidate(builder::Star(4), universe, {5, 6}),
  };
  PatternSetEvaluator eval(universe, weights);
  for (const auto& c : candidates) {
    double predicted = eval.ScoreWith(c);
    eval.Add(c);
    EXPECT_NEAR(predicted, eval.CurrentScore(), 1e-9);
  }
  double batch = EvaluateSubset(candidates, {0, 1, 2}, universe, weights);
  EXPECT_NEAR(batch, eval.CurrentScore(), 1e-9);
  EXPECT_NEAR(eval.coverage_fraction(), 0.7, 1e-9);
}

TEST(PatternScoreTest, GainUpperBoundIsUpperBound) {
  size_t universe = 20;
  ScoreWeights weights;
  PatternSetEvaluator eval(universe, weights);
  std::vector<ScoredCandidate> candidates = {
      MakeCandidate(builder::Triangle(), universe, {0, 1, 2, 3}),
      MakeCandidate(builder::Path(4), universe, {3, 4}),
      MakeCandidate(builder::Clique(5), universe, {0, 1}),
  };
  eval.Add(candidates[0]);
  for (const auto& c : candidates) {
    EXPECT_LE(eval.MarginalGain(c),
              eval.GainUpperBound(c.coverage.Count()) + 1e-9);
  }
}

TEST(PatternScoreTest, GreedyPrefersCoverage) {
  size_t universe = 12;
  ScoreWeights weights;
  weights.diversity = 0.0;
  weights.cognitive_load = 0.0;
  std::vector<ScoredCandidate> candidates = {
      MakeCandidate(builder::Path(3), universe, {0}),
      MakeCandidate(builder::Path(4), universe, {0, 1, 2, 3, 4, 5}),
      MakeCandidate(builder::Path(5), universe, {6, 7, 8}),
  };
  std::vector<size_t> picked = GreedySelect(candidates, 2, universe, weights);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 1u);  // biggest coverage first
  EXPECT_EQ(picked[1], 2u);  // then most new bits
}

TEST(PatternScoreTest, GreedyRespectsBudget) {
  size_t universe = 8;
  ScoreWeights weights;
  std::vector<ScoredCandidate> candidates;
  for (size_t i = 0; i < 8; ++i) {
    candidates.push_back(MakeCandidate(builder::Path(3 + i % 3), universe, {i}));
  }
  std::vector<size_t> picked = GreedySelect(candidates, 3, universe, weights);
  EXPECT_LE(picked.size(), 3u);
  EXPECT_FALSE(picked.empty());
}

TEST(LogUtilityTest, UtilitiesMatchContainment) {
  // Log: two 6-cycles and one path. Pattern utilities follow containment.
  std::vector<Graph> log = {builder::Cycle(6, 0), builder::Cycle(6, 0),
                            builder::Path(5, 0)};
  std::vector<Graph> patterns = {builder::Path(4, 0),   // in all 3
                                 builder::Cycle(6, 0),  // in 2/3
                                 builder::Star(4, 0)};  // in none
  auto utilities = PatternLogUtilities(log, patterns);
  ASSERT_EQ(utilities.size(), 3u);
  EXPECT_NEAR(utilities[0], 1.0, 1e-9);
  EXPECT_NEAR(utilities[1], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(utilities[2], 0.0, 1e-9);
}

TEST(LogUtilityTest, EmptyLogAllZero) {
  auto utilities = PatternLogUtilities({}, {builder::Triangle()});
  ASSERT_EQ(utilities.size(), 1u);
  EXPECT_EQ(utilities[0], 0.0);
}

TEST(LogUtilityTest, LogAwareSelectionPrefersUsefulPatterns) {
  // Two candidates, identical coverage: one matches the log, one does not.
  size_t universe = 8;
  std::vector<ScoredCandidate> candidates = {
      MakeCandidate(builder::Star(4, 0), universe, {0, 1, 2}),
      MakeCandidate(builder::Path(5, 0), universe, {0, 1, 2}),
  };
  std::vector<Graph> log = {builder::Path(6, 0), builder::Path(7, 0)};
  ScoreWeights weights;
  auto picks = LogAwareGreedySelect(candidates, log, 1, universe, weights);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 1u);  // the path, which the log actually uses
}

TEST(LogUtilityTest, EmptyLogEqualsPlainGreedy) {
  Rng rng(9);
  size_t universe = 12;
  std::vector<ScoredCandidate> candidates;
  for (size_t i = 0; i < 6; ++i) {
    std::vector<size_t> bits;
    for (size_t b = 0; b < universe; ++b) {
      if (rng.Bernoulli(0.4)) bits.push_back(b);
    }
    candidates.push_back(
        MakeCandidate(builder::Path(3 + i % 3, 0), universe, bits));
  }
  ScoreWeights weights;
  auto plain = GreedySelect(candidates, 3, universe, weights);
  auto aware = LogAwareGreedySelect(candidates, {}, 3, universe, weights);
  EXPECT_EQ(plain, aware);
}

TEST(PatternScoreTest, GreedyWithinConstantFactorOfOptimum) {
  // Small instance: greedy score >= (1 - 1/e) * optimum is the theoretical
  // bound for the monotone part; empirically check >= 0.5 * optimum.
  Rng rng(4);
  size_t universe = 16;
  ScoreWeights weights;
  std::vector<ScoredCandidate> candidates;
  for (size_t i = 0; i < 10; ++i) {
    std::vector<size_t> bits;
    for (size_t b = 0; b < universe; ++b) {
      if (rng.Bernoulli(0.3)) bits.push_back(b);
    }
    candidates.push_back(
        MakeCandidate(builder::Path(3 + (i % 4)), universe, bits));
  }
  auto greedy = GreedySelect(candidates, 4, universe, weights);
  auto optimal = ExhaustiveSelect(candidates, 4, universe, weights);
  double greedy_score = EvaluateSubset(candidates, greedy, universe, weights);
  double optimal_score = EvaluateSubset(candidates, optimal, universe, weights);
  EXPECT_GE(greedy_score, 0.5 * optimal_score);
  EXPECT_LE(greedy_score, optimal_score + 1e-9);
}

}  // namespace
}  // namespace vqi
