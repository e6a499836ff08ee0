// E3 — tutorial §2.3 practicality of data-driven construction on large
// collections ("significant reduction in the cost of constructing ... a
// VQI"): CATAPULT end-to-end runtime and per-stage breakdown as the
// repository grows. Expected shape: seconds-scale growth, with selection
// (coverage) the dominant stage and clustering second; well under
// interactive-rebuild budgets even at thousands of graphs (construction is
// offline, once per data source). The |D|=4000 row shows which stage
// dominates once clustering is cheap.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "catapult/catapult.h"
#include "graph/generators.h"
#include "metrics/coverage.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 31;

CatapultConfig ConfigFor(size_t db_size) {
  CatapultConfig config;
  config.budget = 10;
  config.num_clusters = 0;  // sqrt heuristic
  config.tree_config.min_support = std::max<size_t>(2, db_size / 20);
  config.tree_config.max_edges = 2;
  config.walks_per_csg = 24;
  config.seed = kSeed;
  return config;
}

void RunExperiment() {
  bench::Table table("E3: CATAPULT scaling with repository size",
                     {"|D| graphs", "total (s)", "mine (s)", "cluster (s)",
                      "CSG (s)", "cands (s)", "select (s)", "#cands",
                      "coverage"});
  for (size_t db_size : {250u, 500u, 1000u, 2000u, 4000u}) {
    GraphDatabase db =
        gen::MoleculeDatabase(db_size, gen::MoleculeConfig{}, kSeed);
    auto result = RunCatapult(db, ConfigFor(db_size));
    if (!result.ok()) {
      std::printf("E3 size %zu failed: %s\n", db_size,
                  result.status().ToString().c_str());
      continue;
    }
    const CatapultStats& s = result->stats;
    table.AddRow({std::to_string(db_size), bench::Fmt(s.total_seconds()),
                  bench::Fmt(s.mine_seconds), bench::Fmt(s.cluster_seconds),
                  bench::Fmt(s.csg_seconds), bench::Fmt(s.candidate_seconds),
                  bench::Fmt(s.select_seconds),
                  std::to_string(s.num_candidates),
                  bench::Fmt(DbSetCoverage(db, result->patterns()))});
  }
  table.Print();
}

void BM_CatapultEndToEnd(benchmark::State& state) {
  size_t db_size = static_cast<size_t>(state.range(0));
  GraphDatabase db = gen::MoleculeDatabase(db_size, gen::MoleculeConfig{}, 3);
  CatapultConfig config = ConfigFor(db_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunCatapult(db, config));
  }
  state.SetComplexityN(static_cast<int64_t>(db_size));
}
BENCHMARK(BM_CatapultEndToEnd)
    ->Arg(125)
    ->Arg(250)
    ->Arg(500)
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
