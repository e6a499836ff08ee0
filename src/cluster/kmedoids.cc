#include "cluster/kmedoids.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"

namespace vqi {

namespace {

// The clustering algorithms below are written once, over an index-pair
// distance callable `dist(a, b)` that returns Distance(points[a], points[b]).
// Two callables exist: the reference `Distance` on dense rows, and a packed
// kernel for 0/1 vectors that returns the very same doubles, so the choice
// between them never changes an assignment, a medoid or a cost.

struct DenseDistance {
  const std::vector<FeatureVector>& points;
  DistanceMetric metric;

  double operator()(size_t a, size_t b) const {
    return Distance(points[a], points[b], metric);
  }
};

// True when every coordinate of every point is 0 or 1 (tree features are).
bool IsBinary(const std::vector<FeatureVector>& points) {
  for (const FeatureVector& p : points) {
    for (double x : p) {
      if (x != 0.0 && x != 1.0) return false;
    }
  }
  return true;
}

// 0/1 vectors packed 64 coordinates to a word, with each point's norm (its
// number of ones) and the square root of that norm computed once. For 0/1
// vectors the dense loops in `Distance` sum exact small integers: the dot
// product is popcount(a & b), the squared norms are popcount(a) and
// popcount(b), the Hamming distance and the Jaccard min/max sums follow from
// those three. Doubles hold such integers exactly, so every kernel below
// reproduces `Distance` bit for bit.
class PackedPoints {
 public:
  explicit PackedPoints(const std::vector<FeatureVector>& points)
      : dim_(points.empty() ? 0 : points[0].size()),
        words_((dim_ + 63) / 64),
        bits_(points.size() * words_, 0),
        norm_(points.size(), 0),
        sqrt_norm_(points.size(), 0.0) {
    for (size_t p = 0; p < points.size(); ++p) {
      VQI_CHECK_EQ(points[p].size(), dim_);
      uint64_t* row = bits_.data() + p * words_;
      for (size_t i = 0; i < dim_; ++i) {
        if (points[p][i] == 1.0) {
          row[i >> 6] |= uint64_t{1} << (i & 63);
          ++norm_[p];
        }
      }
      sqrt_norm_[p] = std::sqrt(static_cast<double>(norm_[p]));
    }
  }

  // popcount(a & b): the dot product of rows a and b.
  size_t Common(size_t a, size_t b) const {
    const uint64_t* x = bits_.data() + a * words_;
    const uint64_t* y = bits_.data() + b * words_;
    size_t common = 0;
    for (size_t w = 0; w < words_; ++w) {
      common += static_cast<size_t>(std::popcount(x[w] & y[w]));
    }
    return common;
  }
  size_t Norm(size_t a) const { return norm_[a]; }
  double SqrtNorm(size_t a) const { return sqrt_norm_[a]; }

 private:
  size_t dim_;
  size_t words_;
  std::vector<uint64_t> bits_;
  std::vector<size_t> norm_;
  std::vector<double> sqrt_norm_;
};

template <DistanceMetric kMetric>
struct PackedDistance {
  const PackedPoints& points;

  double operator()(size_t a, size_t b) const {
    const size_t common = points.Common(a, b);
    const size_t norm_a = points.Norm(a);
    const size_t norm_b = points.Norm(b);
    if constexpr (kMetric == DistanceMetric::kEuclidean) {
      return std::sqrt(static_cast<double>(norm_a + norm_b - 2 * common));
    } else if constexpr (kMetric == DistanceMetric::kCosine) {
      // CosineSimilarity is 1 for two zero vectors and 0 for one.
      if (norm_a == 0 && norm_b == 0) return 0.0;
      if (norm_a == 0 || norm_b == 0) return 1.0;
      return 1.0 - static_cast<double>(common) /
                       (points.SqrtNorm(a) * points.SqrtNorm(b));
    } else {
      const size_t union_size = norm_a + norm_b - common;
      if (union_size == 0) return 0.0;
      return 1.0 - static_cast<double>(common) /
                       static_cast<double>(union_size);
    }
  }
};

// Calls `fn` with the exact distance callable for `points`: the packed
// kernel when every coordinate is 0 or 1, the dense `Distance` otherwise
// (e.g. graphlet frequency features).
template <typename Fn>
auto WithDistance(const std::vector<FeatureVector>& points,
                  DistanceMetric metric, Fn&& fn) {
  if (IsBinary(points)) {
    const PackedPoints packed(points);
    switch (metric) {
      case DistanceMetric::kEuclidean:
        return fn(PackedDistance<DistanceMetric::kEuclidean>{packed});
      case DistanceMetric::kCosine:
        return fn(PackedDistance<DistanceMetric::kCosine>{packed});
      case DistanceMetric::kJaccard:
        return fn(PackedDistance<DistanceMetric::kJaccard>{packed});
    }
  }
  return fn(DenseDistance{points, metric});
}

// Assigns every point to its nearest medoid; returns total cost.
template <typename Dist>
double Assign(size_t n, const std::vector<size_t>& medoids, const Dist& dist,
              std::vector<int>& assignment) {
  double cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double best = std::numeric_limits<double>::infinity();
    int best_cluster = 0;
    for (size_t c = 0; c < medoids.size(); ++c) {
      double d = dist(i, medoids[c]);
      if (d < best) {
        best = d;
        best_cluster = static_cast<int>(c);
      }
    }
    assignment[i] = best_cluster;
    cost += best;
  }
  return cost;
}

template <typename Dist>
ClusteringResult RunKMedoids(size_t n, size_t k, const Dist& dist, Rng& rng,
                             size_t max_iterations) {
  ClusteringResult result;
  // BUILD: first medoid minimizes total distance on a sample; subsequent
  // medoids maximize marginal cost reduction (classic greedy PAM BUILD).
  std::vector<size_t> medoids;
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  {
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    // On large inputs evaluate a random sample of starting candidates.
    size_t candidates = std::min<size_t>(n, 64);
    for (size_t t = 0; t < candidates; ++t) {
      size_t cand = (candidates == n) ? t : rng.UniformInt(n);
      double cost = 0.0;
      for (size_t i = 0; i < n; ++i) {
        cost += dist(i, cand);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = dist(i, best);
    }
  }
  while (medoids.size() < k) {
    size_t best = medoids[0];
    double best_gain = -1.0;
    for (size_t cand = 0; cand < n; ++cand) {
      if (std::find(medoids.begin(), medoids.end(), cand) != medoids.end()) {
        continue;
      }
      double gain = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double d = dist(i, cand);
        if (d < nearest[i]) gain += nearest[i] - d;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = cand;
      }
    }
    medoids.push_back(best);
    for (size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], dist(i, best));
    }
  }

  // Alternating refinement: assignment, then per-cluster medoid update.
  std::vector<int> assignment(n, 0);
  double cost = Assign(n, medoids, dist, assignment);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    std::vector<std::vector<size_t>> members =
        ClusterMembers(assignment, medoids.size());
    for (size_t c = 0; c < medoids.size(); ++c) {
      if (members[c].empty()) continue;
      size_t best = medoids[c];
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t cand : members[c]) {
        double cand_cost = 0.0;
        for (size_t other : members[c]) {
          cand_cost += dist(other, cand);
        }
        if (cand_cost < best_cost) {
          best_cost = cand_cost;
          best = cand;
        }
      }
      if (best != medoids[c]) {
        medoids[c] = best;
        changed = true;
      }
    }
    if (!changed) break;
    cost = Assign(n, medoids, dist, assignment);
  }

  result.assignment = std::move(assignment);
  result.medoids = std::move(medoids);
  result.cost = cost;
  return result;
}

template <typename Dist>
double Silhouette(size_t n, const ClusteringResult& clustering,
                  const Dist& dist) {
  std::vector<std::vector<size_t>> members =
      ClusterMembers(clustering.assignment, clustering.num_clusters());
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t own = static_cast<size_t>(clustering.assignment[i]);
    if (members[own].size() <= 1) continue;  // silhouette undefined
    double a = 0.0;
    for (size_t j : members[own]) {
      if (j != i) a += dist(i, j);
    }
    a /= static_cast<double>(members[own].size() - 1);
    double b = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < members.size(); ++c) {
      if (c == own || members[c].empty()) continue;
      double d = 0.0;
      for (size_t j : members[c]) d += dist(i, j);
      d /= static_cast<double>(members[c].size());
      b = std::min(b, d);
    }
    if (!std::isfinite(b)) continue;
    double denom = std::max(a, b);
    total += denom == 0.0 ? 0.0 : (b - a) / denom;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

}  // namespace

ClusteringResult KMedoids(const std::vector<FeatureVector>& points, size_t k,
                          DistanceMetric metric, Rng& rng,
                          size_t max_iterations) {
  size_t n = points.size();
  if (n == 0) return ClusteringResult{};
  k = std::min(k, n);
  VQI_CHECK_GE(k, 1u);
  return WithDistance(points, metric, [&](const auto& dist) {
    return RunKMedoids(n, k, dist, rng, max_iterations);
  });
}

std::vector<std::vector<size_t>> ClusterMembers(
    const std::vector<int>& assignment, size_t num_clusters) {
  std::vector<std::vector<size_t>> members(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    VQI_CHECK_GE(assignment[i], 0);
    VQI_CHECK_LT(static_cast<size_t>(assignment[i]), num_clusters);
    members[assignment[i]].push_back(i);
  }
  return members;
}

double MeanSilhouette(const std::vector<FeatureVector>& points,
                      const ClusteringResult& clustering,
                      DistanceMetric metric) {
  size_t n = points.size();
  if (n == 0 || clustering.num_clusters() < 2) return 0.0;
  return WithDistance(points, metric, [&](const auto& dist) {
    return Silhouette(n, clustering, dist);
  });
}

}  // namespace vqi
