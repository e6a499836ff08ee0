// Offline path: build a VQI through its public entry, then keep it fresh
// with a fixed stream of minor and major batches.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/stopwatch.h"
#include "graph/generators.h"
#include "match/vf2.h"
#include "metrics/coverage.h"
#include "oracle.h"
#include "workload.h"

namespace vqibench {
namespace {

using vqi::Graph;
using vqi::GraphDatabase;
using vqi::GraphId;
using vqi::Stopwatch;

constexpr size_t kBudget = 10;

vqi::CatapultConfig CollectionConfig(const Spec& spec, uint64_t seed) {
  vqi::CatapultConfig config;
  config.budget = kBudget;
  config.tree_config.min_support = std::max<size_t>(2, spec.graphs / 20);
  config.tree_config.max_edges = 2;
  config.walks_per_csg = 24;
  // MIDAS maintains the closed-tree feature basis, so the build mines it.
  config.use_closed_trees = true;
  config.seed = seed;
  return config;
}

vqi::NetworkMaintenanceConfig NetworkConfig(uint64_t seed) {
  vqi::NetworkMaintenanceConfig config;
  config.base.budget = kBudget;
  config.base.seed = seed;
  config.drift_threshold = 0.01;
  config.seed = seed;
  return config;
}

vqi::gen::LabelConfig NetworkLabels() {
  vqi::gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 1;
  return labels;
}

// Budget, edge-size range and connectivity. Returns the first violation, or
// "" when every property holds.
std::string CheckPatterns(const std::vector<Graph>& patterns, size_t min_edges,
                          size_t max_edges) {
  if (patterns.empty() || patterns.size() > kBudget) {
    return "pattern count " + std::to_string(patterns.size()) +
           " outside 1.." + std::to_string(kBudget);
  }
  for (const Graph& p : patterns) {
    if (p.NumEdges() < min_edges || p.NumEdges() > max_edges) {
      return "pattern with " + std::to_string(p.NumEdges()) +
             " edges outside the size range";
    }
    if (!OracleConnected(p)) return "disconnected pattern";
  }
  return "";
}

// Realisation in the data: each pattern of a checked set is one operation,
// failed when no data graph contains it. CATAPULT and MIDAS can keep such a
// pattern (a walk over a cluster summary graph can assemble one); that is a
// known fault of the program, so it fails the operation but leaves the run
// correct. Offline inputs do not depend on --seed, so every run fails the
// same checks.
void CheckRealised(const std::vector<Graph>& patterns,
                   const std::function<bool(const Graph&)>& realised,
                   Owner* o, Report* report) {
  for (const Graph& p : patterns) {
    bool ok = realised(p);
    if (!ok) ++o->unrealised;
    report->Op(ok, "pattern occurs in no data graph", /*known_fault=*/true);
  }
}

std::string CheckPanel(const vqi::AttributePanel& panel,
                       const LabelCounts& recount) {
  auto same = [](const std::vector<vqi::AttributeEntry>& entries,
                 const std::map<vqi::Label, uint64_t>& counts) {
    if (entries.size() != counts.size()) return false;
    for (const vqi::AttributeEntry& e : entries) {
      auto it = counts.find(e.label);
      if (it == counts.end() || it->second != e.count) return false;
    }
    return true;
  };
  if (!same(panel.vertex_attributes(), recount.vertices) ||
      !same(panel.edge_attributes(), recount.edges)) {
    return "attribute panel differs from a recount of the data";
  }
  return "";
}

std::string CheckCollection(Owner* o, Report* report) {
  const vqi::CatapultConfig& config = o->maintainer->state().catapult.config;
  const std::vector<Graph>& patterns = o->maintainer->state().patterns();
  const GraphDatabase& db = *o->db;
  CheckRealised(patterns, [&db](const Graph& p) {
    for (const Graph& g : db.graphs()) {
      if (OracleContains(p, g)) return true;
    }
    return false;
  }, o, report);
  std::string problem = CheckPatterns(patterns, config.min_pattern_edges,
                                      config.max_pattern_edges);
  if (!problem.empty()) return problem;
  LabelCounts recount;
  for (const Graph& g : db.graphs()) AddLabels(g, &recount);
  return CheckPanel(o->built.vqi.attribute_panel(), recount);
}

std::string CheckNetwork(Owner* o, const vqi::TattooConfig& config,
                         Report* report) {
  const Graph& network = o->net_state.network;
  CheckRealised(o->net_state.patterns, [&network](const Graph& p) {
    return OracleContains(p, network);
  }, o, report);
  return CheckPatterns(o->net_state.patterns, config.min_pattern_edges,
                       config.max_pattern_edges);
}

void NetworkBatch(bool major, const vqi::NetworkMaintenanceConfig& config,
                  Owner* o, Report* report) {
  const Graph& network = o->net_state.network;
  const size_t n = network.NumVertices();
  vqi::NetworkBatch batch;
  if (major) {
    // Close a triangle at 20% of the vertices: the local structure every
    // sampled ego-net sees shifts, so the sampled graphlet distribution
    // drifts.
    for (size_t i = 0; i < n / 5; ++i) {
      auto v = static_cast<vqi::VertexId>(o->rng.UniformInt(n));
      const auto& nbs = network.Neighbors(v);
      if (nbs.size() < 2) continue;
      vqi::VertexId a = nbs[o->rng.UniformInt(nbs.size())].vertex;
      vqi::VertexId b = nbs[o->rng.UniformInt(nbs.size())].vertex;
      if (a != b) batch.edge_insertions.push_back(vqi::Edge{a, b, 0});
    }
  } else {
    for (size_t i = 0; i < 200; ++i) {
      auto u = static_cast<vqi::VertexId>(o->rng.UniformInt(n));
      auto v = static_cast<vqi::VertexId>(o->rng.UniformInt(n));
      if (u != v) batch.edge_insertions.push_back(vqi::Edge{u, v, 0});
    }
    for (size_t i = 0; i < 50; ++i) {
      auto v = static_cast<vqi::VertexId>(o->rng.UniformInt(n));
      const auto& nbs = network.Neighbors(v);
      if (nbs.size() < 2) continue;
      batch.edge_deletions.emplace_back(
          v, nbs[o->rng.UniformInt(nbs.size())].vertex);
    }
  }
  std::vector<Graph> before = o->net_state.patterns;
  vqi::StatusOr<vqi::NetworkMaintenanceReport> result =
      vqi::Status::Internal("not run");
  PhaseTime time = TimePhase(&report->speed, [&] {
    result = vqi::ApplyNetworkBatch(o->net_state, batch, config);
  });
  if (!result.ok()) {
    report->Op(false, "network batch: " + result.status().ToString());
    return;
  }
  std::string problem = CheckNetwork(o, config.base, report);
  if (result->drift.type == vqi::ModificationType::kMajor) {
    ++o->majors;
    o->major_s.push_back(time.scaled_s);
    o->major_raw_s.push_back(time.raw_s);
    o->swaps += result->swap.swaps_applied;
    o->candidates += result->candidates_generated;
    o->region_vertices += result->region_vertices;
    double cov_before = vqi::NetworkSetCoverage(o->net_state.network, before,
                                                config.base.coverage);
    double cov_after = vqi::NetworkSetCoverage(
        o->net_state.network, o->net_state.patterns, config.base.coverage);
    if (result->swap.score_after < result->swap.score_before - 1e-12 ||
        cov_after < cov_before - 1e-12) {
      problem = "network swap lowered coverage or score";
    }
  } else {
    ++o->minors;
    o->minor_ms.push_back(time.scaled_s * 1000);
    o->minor_raw_ms.push_back(time.raw_s * 1000);
  }
  if (major != (result->drift.type == vqi::ModificationType::kMajor)) {
    std::fprintf(stderr, "note: %s network batch classified otherwise "
                 "(drift %.4f)\n", major ? "major" : "minor",
                 result->drift.distance);
  }
  report->Op(problem.empty(), problem);
}

}  // namespace

Data MakeData(const Spec& spec) {
  const uint64_t seed = kOfflineSeed;
  Data data;
  if (spec.network) {
    vqi::Rng rng(seed);
    data.network = vqi::gen::BarabasiAlbert(spec.vertices, 3, NetworkLabels(),
                                            rng);
    data.db.Add(data.network);
  } else {
    data.db = vqi::gen::MoleculeDatabase(spec.graphs,
                                         vqi::gen::MoleculeConfig{}, seed);
  }
  return data;
}

void CollectionBatch(bool major, Owner* o, Report* report) {
  GraphDatabase& db = *o->db;
  vqi::BatchUpdate update;
  std::vector<GraphId> before = db.Ids();
  const bool drift_back = major && !o->drifted.empty();
  if (drift_back) {
    // Every other major takes the previous major's random graphs out again
    // and puts molecules back, so each major moves the graphlet
    // distribution by about as much, however many came before.
    for (GraphId id : o->drifted) {
      update.deletions.push_back(id);
      update.additions.push_back(
          vqi::gen::Molecule(vqi::gen::MoleculeConfig{}, o->rng));
    }
    o->drifted.clear();
  } else {
    // A minor batch swaps 1% of the molecules for new ones; a major one
    // swaps 10% for structurally different random graphs.
    std::vector<GraphId> ids = before;
    o->rng.Shuffle(ids);
    size_t count = std::max<size_t>(1, db.size() * (major ? 10 : 1) / 100);
    vqi::gen::LabelConfig er_labels;
    er_labels.num_vertex_labels = 4;
    for (size_t i = 0; update.deletions.size() < count && i < ids.size(); ++i) {
      if (o->pinned.count(ids[i])) continue;
      update.deletions.push_back(ids[i]);
      update.additions.push_back(
          major ? vqi::gen::ErdosRenyi(12, 0.4, er_labels, o->rng)
                : vqi::gen::Molecule(vqi::gen::MoleculeConfig{}, o->rng));
    }
  }
  vqi::StatusOr<vqi::MaintenanceReport> result =
      vqi::Status::Internal("not run");
  PhaseTime time = TimePhase(&report->speed, [&] {
    result = o->maintainer->ApplyBatch(o->built.vqi, db, std::move(update));
  });
  if (!result.ok()) {
    report->Op(false, "collection batch: " + result.status().ToString());
    return;
  }
  if (major && !drift_back) {
    std::set<GraphId> old_ids(before.begin(), before.end());
    for (GraphId id : db.Ids()) {
      if (!old_ids.count(id)) o->drifted.push_back(id);
    }
  }
  std::string problem = CheckCollection(o, report);
  o->clusters_touched += result->clusters_touched;
  if (result->drift.type == vqi::ModificationType::kMajor) {
    ++o->majors;
    // maintain_major_s times the majors that bring new structure; the
    // drift-back majors touch few clusters and cost a fraction of that.
    if (!drift_back) {
      o->major_s.push_back(time.scaled_s);
      o->major_raw_s.push_back(time.raw_s);
    }
    o->swaps += result->swap.swaps_applied;
    o->candidates += result->candidates_generated;
    if (result->coverage_after < result->coverage_before - 1e-12 ||
        result->score_after < result->score_before - 1e-12) {
      problem = "MIDAS swap lowered coverage or score";
    }
  } else {
    ++o->minors;
    o->minor_ms.push_back(time.scaled_s * 1000);
    o->minor_raw_ms.push_back(time.raw_s * 1000);
  }
  if (major != (result->drift.type == vqi::ModificationType::kMajor)) {
    std::fprintf(stderr, "note: %s collection batch classified otherwise "
                 "(drift %.4f)\n", major ? "major" : "minor",
                 result->drift.distance);
  }
  report->Op(problem.empty(), problem);
}

void RunOffline(const Spec& spec, Data& data, Fleet& fleet, Owner* o,
                Report* report) {
  const uint64_t seed = kOfflineSeed;
  o->rng = vqi::Rng(seed ^ 0xB47C4ull);
  if (spec.network) {
    vqi::NetworkMaintenanceConfig config = NetworkConfig(seed);
    o->net_state.network = data.network;
    for (size_t rep = 0; rep < spec.build_reps; ++rep) {
      vqi::StatusOr<vqi::VqiBuildResult> built =
          vqi::Status::Internal("not run");
      PhaseTime time = TimePhase(&report->speed, [&] {
        built = vqi::BuildVqiForNetwork(o->net_state.network, config.base);
      });
      if (!built.ok()) {
        report->Op(false, "network build: " + built.status().ToString());
        return;
      }
      o->build_s.push_back(time.scaled_s);
      o->build_raw_s.push_back(time.raw_s);
      std::fprintf(stderr, "build: %.4f s as measured, %.4f s scaled\n",
                   time.raw_s, time.scaled_s);
      o->panel_s.push_back(time.raw_s - built->tattoo_stats.total_seconds());
      o->built = std::move(built).value();
      o->net_state.patterns = o->built.vqi.pattern_panel().CannedPatterns();
      LabelCounts recount;
      AddLabels(o->net_state.network, &recount);
      std::string problem = CheckNetwork(o, config.base, report);
      if (problem.empty()) {
        problem = CheckPanel(o->built.vqi.attribute_panel(), recount);
      }
      report->Op(problem.empty(), problem);
    }
    o->net_state.sampled_gfd = vqi::SampledGraphlets(
        o->net_state.network, config.gfd_samples, config.seed);
    for (char kind : spec.batches) NetworkBatch(kind == 'M', config, o, report);
    o->coverage = vqi::NetworkSetCoverage(
        o->net_state.network, o->net_state.patterns, config.base.coverage);
    return;
  }

  // Batches that land while serving must reach the served collection, so
  // serve workloads with live batches maintain it in place; the others
  // maintain the data owner's private copy.
  if (spec.live_batches > 0) {
    o->db = &data.db;
  } else {
    o->private_db = std::make_unique<GraphDatabase>(data.db);
    o->db = o->private_db.get();
  }
  vqi::CatapultConfig config = CollectionConfig(spec, seed);
  for (size_t rep = 0; rep < spec.build_reps; ++rep) {
    vqi::StatusOr<vqi::VqiBuildResult> built = vqi::Status::Internal("not run");
    PhaseTime time = TimePhase(&report->speed, [&] {
      built = vqi::BuildVqiForDatabase(*o->db, config);
    });
    if (!built.ok()) {
      report->Op(false, "collection build: " + built.status().ToString());
      return;
    }
    o->build_s.push_back(time.scaled_s);
    o->build_raw_s.push_back(time.raw_s);
    std::fprintf(stderr, "build: %.4f s as measured, %.4f s scaled\n",
                 time.raw_s, time.scaled_s);
    o->panel_s.push_back(time.raw_s - built->catapult_stats.total_seconds());
    o->built = std::move(built).value();
    vqi::MidasConfig midas;
    midas.base = config;
    midas.drift_threshold = 0.02;
    o->maintainer = std::make_unique<vqi::VqiMaintainer>(
        o->built.catapult_state, midas);
    std::string problem = CheckCollection(o, report);
    report->Op(problem.empty(), problem);
  }
  if (spec.live_batches > 0) {
    // The documented wiring: every applied batch invalidates the cache.
    o->maintainer->AddBatchListener([&fleet] { fleet.InvalidateCache(); });
  }
  for (char kind : spec.batches) CollectionBatch(kind == 'M', o, report);

  const std::vector<Graph>& patterns = o->maintainer->state().patterns();
  o->coverage = vqi::DbSetCoverage(*o->db, patterns);
  size_t covered = 0;
  for (const Graph& g : o->db->graphs()) {
    for (const Graph& p : patterns) {
      if (OracleContains(p, g)) {
        ++covered;
        break;
      }
    }
  }
  double recount = static_cast<double>(covered) / o->db->size();
  if (recount != o->coverage) {
    report->Op(false, "pattern coverage " + std::to_string(o->coverage) +
                          " differs from the oracle's " +
                          std::to_string(recount));
  }
}

void TraceOffline(const Spec& spec, const Owner& o, Report* report) {
  const vqi::CatapultStats& cs = o.built.catapult_stats;
  const vqi::TattooStats& ts = o.built.tattoo_stats;
  report->Layer("mining.mine_s", cs.mine_seconds, "s");
  report->Layer("mining.features", cs.num_features, "count");
  report->Layer("cluster.cluster_s", cs.cluster_seconds, "s");
  report->Layer("cluster.csg_s", cs.csg_seconds, "s");
  report->Layer("cluster.clusters", cs.num_clusters, "count");
  report->Layer("catapult.candidates_s", cs.candidate_seconds, "s");
  report->Layer("catapult.candidates", cs.num_candidates, "count");
  report->Layer("truss.decompose_s", ts.decompose_seconds, "s");
  report->Layer("tattoo.candidates_s", ts.candidate_seconds, "s");
  report->Layer("tattoo.candidates", ts.num_candidates, "count");
  report->Layer("metrics.select_s", cs.select_seconds + ts.select_seconds,
                "s");
  report->Layer("vqi.panel_s", Median(o.panel_s), "s");

  // Re-run the coverage the selection relies on, over the final patterns
  // and the current data, through the public coverage functions.
  double coverage_ms = 0;
  uint64_t steps = 0;
  if (spec.network) {
    const vqi::Graph& network = o.net_state.network;
    std::vector<vqi::Edge> edges = network.Edges();
    vqi::NetworkCoverageOptions options = NetworkConfig(0).base.coverage;
    for (const Graph& p : o.net_state.patterns) {
      Stopwatch watch;
      vqi::NetworkCoverageBits(network, edges, p, options);
      coverage_ms += watch.ElapsedMillis();
      vqi::MatchOptions match;
      match.max_embeddings = options.max_embeddings;
      match.max_steps = options.max_steps;
      vqi::SubgraphMatcher matcher(p, network, match);
      matcher.CountEmbeddings();
      steps += matcher.steps();
    }
  } else {
    for (const Graph& p : o.maintainer->state().patterns()) {
      Stopwatch watch;
      vqi::CoverageBits(*o.db, p);
      coverage_ms += watch.ElapsedMillis();
      for (const Graph& g : o.db->graphs()) {
        vqi::SubgraphMatcher matcher(p, g);
        matcher.Exists();
        steps += matcher.steps();
      }
    }
  }
  report->Layer("match.coverage_ms", coverage_ms, "ms");
  report->Layer("match.coverage_steps", static_cast<double>(steps), "count");

  report->Layer("midas.minor_batches", o.minors, "count");
  report->Layer("midas.major_batches", o.majors, "count");
  report->Layer("midas.swaps", o.swaps, "count");
  report->Layer("midas.candidates", o.candidates, "count");
  report->Layer("midas.clusters_touched", o.clusters_touched, "count");
  report->Layer("tattoo.region_vertices", o.region_vertices, "count");
  report->Layer("catapult.unrealised_patterns", o.unrealised, "count");
}

}  // namespace vqibench
