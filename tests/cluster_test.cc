#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <tuple>

#include "cluster/agglomerative.h"
#include "cluster/closure.h"
#include "cluster/csg.h"
#include "cluster/features.h"
#include "cluster/kmedoids.h"
#include "cluster/similarity.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "kmedoids_oracle.h"
#include "match/vf2.h"
#include "mining/closed_trees.h"
#include "mining/graphlets.h"
#include "mining/tree_miner.h"

namespace vqi {
namespace {

TEST(SimilarityTest, CosineBasics) {
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({1, 0}, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);
  EXPECT_NEAR(CosineSimilarity({1, 1}, {1, 0}), 0.7071, 1e-3);
}

TEST(SimilarityTest, Distances) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}, DistanceMetric::kEuclidean), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 0}, {1, 0}, DistanceMetric::kCosine), 0.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 0}, DistanceMetric::kJaccard), 0.5);
  EXPECT_DOUBLE_EQ(Distance({}, {}, DistanceMetric::kJaccard), 0.0);
}

TEST(FeaturesTest, TreeFeaturesMatchSupports) {
  GraphDatabase db;
  db.Add(builder::FromLists({0, 1}, {{0, 1, 0}}));
  db.Add(builder::FromLists({0, 1, 1}, {{0, 1, 0}, {1, 2, 0}}));
  db.Add(builder::FromLists({2, 2}, {{0, 1, 0}}));
  TreeMinerConfig config;
  config.min_support = 1;
  config.max_edges = 1;
  auto basis = MineFrequentTrees(db, config);
  auto features = TreeFeatures(db, basis);
  ASSERT_EQ(features.size(), 3u);
  for (size_t i = 0; i < db.size(); ++i) {
    FeatureVector direct = TreeFeatureOf(db.graphs()[i], basis);
    EXPECT_EQ(features[i], direct) << "graph " << i;
  }
}

std::vector<FeatureVector> TwoBlobs() {
  // Two well-separated blobs in 2D.
  return {
      {0.0, 0.0}, {0.1, 0.0}, {0.0, 0.1}, {0.1, 0.1},
      {5.0, 5.0}, {5.1, 5.0}, {5.0, 5.1}, {5.1, 5.1},
  };
}

TEST(KMedoidsTest, SeparatesBlobs) {
  Rng rng(1);
  auto points = TwoBlobs();
  ClusteringResult result =
      KMedoids(points, 2, DistanceMetric::kEuclidean, rng);
  ASSERT_EQ(result.num_clusters(), 2u);
  // First four together, last four together.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(result.assignment[i], result.assignment[4]);
  EXPECT_NE(result.assignment[0], result.assignment[4]);
  EXPECT_GT(MeanSilhouette(points, result, DistanceMetric::kEuclidean), 0.8);
}

TEST(KMedoidsTest, KClampedToN) {
  Rng rng(2);
  std::vector<FeatureVector> points = {{0.0}, {1.0}};
  ClusteringResult result =
      KMedoids(points, 10, DistanceMetric::kEuclidean, rng);
  EXPECT_EQ(result.num_clusters(), 2u);
  EXPECT_NEAR(result.cost, 0.0, 1e-12);
}

TEST(KMedoidsTest, EmptyInput) {
  Rng rng(3);
  ClusteringResult result = KMedoids({}, 3, DistanceMetric::kEuclidean, rng);
  EXPECT_EQ(result.num_clusters(), 0u);
  EXPECT_TRUE(result.assignment.empty());
}

TEST(KMedoidsTest, MedoidsAreMembers) {
  Rng rng(4);
  auto points = TwoBlobs();
  ClusteringResult result =
      KMedoids(points, 3, DistanceMetric::kEuclidean, rng);
  for (size_t c = 0; c < result.num_clusters(); ++c) {
    size_t medoid = result.medoids[c];
    ASSERT_LT(medoid, points.size());
  }
}

// --- Differential: KMedoids / MeanSilhouette vs the dense oracle ---------

constexpr DistanceMetric kAllMetrics[] = {
    DistanceMetric::kEuclidean, DistanceMetric::kCosine,
    DistanceMetric::kJaccard};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Runs the library and the oracle from the same seed and asserts identical
// assignments and medoids and bit-identical cost and silhouette. Returns the
// library's clustering.
ClusteringResult ExpectMatchesOracle(const std::vector<FeatureVector>& points,
                                     size_t k, DistanceMetric metric,
                                     uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "metric " << static_cast<int>(metric)
                                    << " k " << k << " seed " << seed);
  Rng rng(seed), oracle_rng(seed);
  ClusteringResult got = KMedoids(points, k, metric, rng);
  ClusteringResult want = oracle::KMedoids(points, k, metric, oracle_rng);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_EQ(Bits(got.cost), Bits(want.cost)) << got.cost << " vs " << want.cost;
  EXPECT_EQ(Bits(MeanSilhouette(points, got, metric)),
            Bits(oracle::MeanSilhouette(points, want, metric)));
  // Both consumed the same random draws.
  EXPECT_EQ(rng.Next(), oracle_rng.Next());
  return got;
}

bool AllBinary(const std::vector<FeatureVector>& points) {
  for (const FeatureVector& p : points) {
    for (double x : p) {
      if (x != 0.0 && x != 1.0) return false;
    }
  }
  return true;
}

// Random 0/1 vectors, each coordinate set with probability `density`.
std::vector<FeatureVector> RandomBinary(size_t n, size_t dim, double density,
                                        Rng& rng) {
  std::vector<FeatureVector> points(n, FeatureVector(dim, 0.0));
  for (FeatureVector& p : points) {
    for (double& x : p) x = rng.Bernoulli(density) ? 1.0 : 0.0;
  }
  return points;
}

// Seeded molecule corpora clustered on closed-tree features, as CATAPULT
// does: support 5% of the collection, trees up to two edges, k = ceil(sqrt n).
class KMedoidsCorpusTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(KMedoidsCorpusTest, MatchesDenseOracle) {
  const auto [size, seed] = GetParam();
  GraphDatabase db = gen::MoleculeDatabase(size, gen::MoleculeConfig{}, seed);
  TreeMinerConfig config;
  config.min_support = std::max<size_t>(2, size / 20);
  config.max_edges = 2;
  std::vector<FeatureVector> features =
      TreeFeatures(db, MineClosedTrees(db, config));
  ASSERT_EQ(features.size(), size);
  ASSERT_FALSE(features[0].empty());
  ASSERT_TRUE(AllBinary(features));
  const size_t k = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(size))));
  for (DistanceMetric metric : kAllMetrics) {
    ExpectMatchesOracle(features, k, metric, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, KMedoidsCorpusTest,
    ::testing::Combine(::testing::Values<size_t>(50, 300, 1000),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(KMedoidsDifferentialTest, AllZeroVectors) {
  std::vector<FeatureVector> points(7, FeatureVector(5, 0.0));
  for (DistanceMetric metric : kAllMetrics) {
    ExpectMatchesOracle(points, 3, metric, 11);
  }
}

TEST(KMedoidsDifferentialTest, SomeZeroVectors) {
  // Zero rows next to non-zero rows hit the one-zero-vector cosine case.
  Rng rng(12);
  std::vector<FeatureVector> points = RandomBinary(40, 9, 0.3, rng);
  for (size_t i = 0; i < points.size(); i += 4) {
    std::fill(points[i].begin(), points[i].end(), 0.0);
  }
  for (DistanceMetric metric : kAllMetrics) {
    for (size_t k : {1, 2, 5}) ExpectMatchesOracle(points, k, metric, 12);
  }
}

TEST(KMedoidsDifferentialTest, DuplicateVectorsBreakTiesAlike) {
  // Three distinct rows repeated many times: every distance ties.
  Rng rng(13);
  std::vector<FeatureVector> distinct = RandomBinary(3, 6, 0.5, rng);
  std::vector<FeatureVector> points;
  for (int copy = 0; copy < 20; ++copy) {
    for (const FeatureVector& p : distinct) points.push_back(p);
  }
  for (DistanceMetric metric : kAllMetrics) {
    for (size_t k : {2, 3, 4, 7}) ExpectMatchesOracle(points, k, metric, 13);
  }
}

TEST(KMedoidsDifferentialTest, KOneAndKEqualsN) {
  Rng rng(14);
  std::vector<FeatureVector> points = RandomBinary(30, 12, 0.4, rng);
  for (DistanceMetric metric : kAllMetrics) {
    ExpectMatchesOracle(points, 1, metric, 14);
    ClusteringResult all = ExpectMatchesOracle(points, 30, metric, 14);
    EXPECT_EQ(all.num_clusters(), 30u);
    // k > n clamps to n.
    ExpectMatchesOracle(points, 45, metric, 14);
  }
}

TEST(KMedoidsDifferentialTest, MultiWordDimensions) {
  // 64, 65 and 200 coordinates: exactly one word, one bit past it, and
  // several words with a partial last word.
  for (size_t dim : {64, 65, 200}) {
    Rng rng(dim);
    std::vector<FeatureVector> points = RandomBinary(120, dim, 0.2, rng);
    for (DistanceMetric metric : kAllMetrics) {
      ExpectMatchesOracle(points, 11, metric, dim);
    }
  }
}

TEST(KMedoidsDifferentialTest, GraphletFeaturesTakeTheDensePath) {
  // Graphlet frequencies are fractions. Read as 0/1 vectors they would be
  // (nearly) all zero, and the clustering and its cost would change.
  GraphDatabase db = gen::MoleculeDatabase(60, gen::MoleculeConfig{}, 15);
  std::vector<FeatureVector> features;
  for (const Graph& g : db.graphs()) {
    GraphletDistribution d = GraphletsOf(g);
    features.emplace_back(d.freq.begin(), d.freq.end());
  }
  ASSERT_FALSE(AllBinary(features));
  for (DistanceMetric metric : kAllMetrics) {
    ClusteringResult got = ExpectMatchesOracle(features, 8, metric, 15);
    EXPECT_GT(got.cost, 0.0);
  }
}

TEST(KMedoidsDifferentialTest, OneFractionalCoordinateTakesTheDensePath) {
  Rng rng(16);
  std::vector<FeatureVector> points = RandomBinary(50, 10, 0.5, rng);
  points[17][3] = 0.5;
  for (DistanceMetric metric : kAllMetrics) {
    ExpectMatchesOracle(points, 6, metric, 16);
  }
}

TEST(AgglomerativeTest, SeparatesBlobs) {
  auto points = TwoBlobs();
  ClusteringResult result =
      AgglomerativeAverageLinkage(points, 2, DistanceMetric::kEuclidean);
  ASSERT_EQ(result.num_clusters(), 2u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(result.assignment[i], result.assignment[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(result.assignment[i], result.assignment[4]);
  EXPECT_NE(result.assignment[0], result.assignment[4]);
}

TEST(AgglomerativeTest, KOneMergesAll) {
  auto points = TwoBlobs();
  ClusteringResult result =
      AgglomerativeAverageLinkage(points, 1, DistanceMetric::kEuclidean);
  EXPECT_EQ(result.num_clusters(), 1u);
  std::set<int> labels(result.assignment.begin(), result.assignment.end());
  EXPECT_EQ(labels.size(), 1u);
}

TEST(ClusterMembersTest, Partition) {
  auto members = ClusterMembers({0, 1, 0, 1, 2}, 3);
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].size(), 2u);
  EXPECT_EQ(members[2].size(), 1u);
}

TEST(ClosureTest, IdenticalGraphsAlignPerfectly) {
  Graph a = builder::FromLists({0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  Graph closure = GraphClosure(a, a);
  EXPECT_EQ(closure.NumVertices(), a.NumVertices());
  EXPECT_EQ(closure.NumEdges(), a.NumEdges());
  for (VertexId v = 0; v < closure.NumVertices(); ++v) {
    EXPECT_NE(closure.VertexLabel(v), kDummyLabel);
  }
}

TEST(ClosureTest, DisjointLabelsCreateNewVertices) {
  Graph a = builder::SingleEdge(0, 1);
  Graph b = builder::SingleEdge(7, 8);
  Graph closure = GraphClosure(a, b);
  // Nothing aligns; closure holds both edges.
  EXPECT_EQ(closure.NumVertices(), 4u);
  EXPECT_EQ(closure.NumEdges(), 2u);
}

TEST(ClosureTest, EveryMemberRepresented) {
  // The closure must contain at least as many vertices/edges as each input.
  Rng rng(8);
  gen::MoleculeConfig config;
  for (int trial = 0; trial < 5; ++trial) {
    Graph a = gen::Molecule(config, rng);
    Graph b = gen::Molecule(config, rng);
    Graph closure = GraphClosure(a, b);
    EXPECT_GE(closure.NumVertices(), std::max(a.NumVertices(), b.NumVertices()));
    EXPECT_GE(closure.NumEdges(), std::max(a.NumEdges(), b.NumEdges()));
    EXPECT_LE(closure.NumVertices(), a.NumVertices() + b.NumVertices());
    EXPECT_LE(closure.NumEdges(), a.NumEdges() + b.NumEdges());
  }
}

TEST(CsgTest, SingleMemberIsItself) {
  Graph a = builder::FromLists({0, 1, 2}, {{0, 1, 5}, {1, 2, 6}});
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build({&a});
  EXPECT_EQ(csg.num_members(), 1u);
  EXPECT_EQ(csg.graph().NumVertices(), 3u);
  EXPECT_EQ(csg.graph().NumEdges(), 2u);
  auto edges = csg.graph().Edges();
  for (const Edge& e : edges) {
    EXPECT_DOUBLE_EQ(csg.EdgeWeight(e.u, e.v), 1.0);
  }
}

TEST(CsgTest, SharedEdgesGetHigherWeight) {
  // Three graphs all containing labeled edge (0)-(1); only one has (1)-(2).
  Graph a = builder::FromLists({0, 1}, {{0, 1, 0}});
  Graph b = builder::FromLists({0, 1}, {{0, 1, 0}});
  Graph c = builder::FromLists({0, 1, 2}, {{0, 1, 0}, {1, 2, 0}});
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build({&a, &b, &c});
  EXPECT_EQ(csg.num_members(), 3u);
  // Find the (0)-(1) edge and the (1)-(2) edge by endpoint labels.
  const Graph& g = csg.graph();
  double shared_weight = 0.0, rare_weight = 0.0;
  for (const Edge& e : g.Edges()) {
    Label lu = g.VertexLabel(e.u), lv = g.VertexLabel(e.v);
    if ((lu == 0 && lv == 1) || (lu == 1 && lv == 0)) {
      shared_weight = csg.EdgeWeight(e.u, e.v);
    }
    if ((lu == 1 && lv == 2) || (lu == 2 && lv == 1)) {
      rare_weight = csg.EdgeWeight(e.u, e.v);
    }
  }
  EXPECT_DOUBLE_EQ(shared_weight, 3.0);
  EXPECT_DOUBLE_EQ(rare_weight, 1.0);
}

TEST(CsgTest, MajorityLabelsKeepPatternsMatchable) {
  // Unlike a wildcard closure, the CSG must never emit kDummyLabel.
  Rng rng(9);
  gen::MoleculeConfig config;
  std::vector<Graph> members;
  for (int i = 0; i < 6; ++i) members.push_back(gen::Molecule(config, rng));
  std::vector<const Graph*> ptrs;
  for (const Graph& m : members) ptrs.push_back(&m);
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build(ptrs);
  for (VertexId v = 0; v < csg.graph().NumVertices(); ++v) {
    EXPECT_NE(csg.graph().VertexLabel(v), kDummyLabel);
  }
  for (const Edge& e : csg.graph().Edges()) {
    EXPECT_NE(e.label, kDummyLabel);
  }
}

TEST(CsgTest, CsgSmallerThanMemberSum) {
  // Folding similar molecules should merge shared skeletons.
  GraphDatabase db = gen::MoleculeDatabase(8, gen::MoleculeConfig{}, 31);
  std::vector<const Graph*> ptrs;
  size_t total_vertices = 0;
  for (const Graph& g : db.graphs()) {
    ptrs.push_back(&g);
    total_vertices += g.NumVertices();
  }
  ClusterSummaryGraph csg = ClusterSummaryGraph::Build(ptrs);
  EXPECT_LT(csg.graph().NumVertices(), total_vertices);
}

}  // namespace
}  // namespace vqi
