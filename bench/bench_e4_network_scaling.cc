// E4 — tutorial §2.3 on large networks:
//   "techniques for selecting canned patterns from a collection of small-
//    or medium-sized data graphs cannot be utilized for large networks as
//    the clustering-based approach is prohibitively expensive" -> TATTOO.
// Reproduction: TATTOO runtime vs a clustering-based baseline (the network
// is BFS-partitioned into pseudo data graphs and fed through CATAPULT, the
// standard adaptation) over growing Barabási–Albert networks. Expected
// shape: both grow, but the clustering baseline grows much faster and is
// already an order of magnitude slower at modest sizes, while TATTOO stays
// decomposition-bound.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "bench_util.h"
#include "catapult/catapult.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "tattoo/tattoo.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 44;

struct BaselineRun {
  double seconds = -1.0;  // wall time including the partition; < 0: skipped
  CatapultStats stats;
};

BaselineRun RunClusteringBaseline(const Graph& network) {
  Stopwatch watch;
  GraphDatabase db = PartitionIntoChunks(network, 30);
  CatapultConfig config;
  config.budget = 10;
  config.num_clusters = 0;
  config.tree_config.min_support = std::max<size_t>(2, db.size() / 20);
  config.walks_per_csg = 24;
  config.seed = kSeed;
  auto result = RunCatapult(db, config);
  BaselineRun run;
  run.seconds = watch.ElapsedSeconds();
  if (result.ok()) run.stats = result->stats;
  return run;
}

// The baseline's most expensive CATAPULT stage, e.g. "select 12.3".
std::string DominantStage(const CatapultStats& s) {
  std::pair<double, const char*> stages[] = {
      {s.mine_seconds, "mine"},      {s.cluster_seconds, "cluster"},
      {s.csg_seconds, "CSG"},        {s.candidate_seconds, "cands"},
      {s.select_seconds, "select"}};
  auto top = std::max_element(std::begin(stages), std::end(stages));
  return std::string(top->second) + " " + bench::Fmt(top->first);
}

void RunExperiment() {
  bench::Table table(
      "E4: selection runtime on large networks, TATTOO vs clustering baseline",
      {"|V|", "|E|", "TATTOO (s)", "truss (s)", "cands (s)", "select (s)",
       "clustering baseline (s)", "baseline cluster (s)",
       "baseline top stage (s)", "baseline/TATTOO"});
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 5;
  for (size_t n : {2000u, 5000u, 10000u, 20000u}) {
    Graph network = gen::BarabasiAlbert(n, 3, labels, rng);

    TattooConfig config;
    config.budget = 10;
    config.samples_per_class = 32;
    config.seed = kSeed;
    Stopwatch watch;
    auto tattoo = RunTattoo(network, config);
    double tattoo_seconds = watch.ElapsedSeconds();
    if (!tattoo.ok()) continue;

    // The baseline becomes painful fast; stop timing it beyond 10k vertices
    // and report the trend (that *is* the claim).
    BaselineRun baseline;
    if (n <= 10000) baseline = RunClusteringBaseline(network);
    const bool skipped = baseline.seconds < 0;

    table.AddRow(
        {std::to_string(n), std::to_string(network.NumEdges()),
         bench::Fmt(tattoo_seconds),
         bench::Fmt(tattoo->stats.decompose_seconds),
         bench::Fmt(tattoo->stats.candidate_seconds),
         bench::Fmt(tattoo->stats.select_seconds),
         skipped ? "(skipped)" : bench::Fmt(baseline.seconds),
         skipped ? "-" : bench::Fmt(baseline.stats.cluster_seconds),
         skipped ? "-" : DominantStage(baseline.stats),
         skipped ? "-"
                 : bench::Fmt(baseline.seconds /
                                  std::max(1e-9, tattoo_seconds),
                              1) + "x"});
  }
  table.Print();
}

void BM_TrussDecomposition(benchmark::State& state) {
  Rng rng(9);
  gen::LabelConfig labels;
  Graph network =
      gen::BarabasiAlbert(static_cast<size_t>(state.range(0)), 3, labels, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeTruss(network));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TrussDecomposition)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  vqi::RunExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
