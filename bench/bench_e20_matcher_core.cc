// E20 — raw-speed matcher core (ROADMAP: CSR adjacency + candidate index).
// The claim: on labeled BA / WS targets, index-driven candidate generation
// (label buckets + degree cutoffs + neighborhood-label signatures) cuts VF2
// search steps by an order of magnitude relative to the legacy
// direct-adjacency search in tests/vf2_oracle.h, while returning the same
// embeddings in the same order (certified separately by
// tests/differential_test.cc). Both searches visit candidates in the same
// order, so every row's ratio is a pure pruning measurement.
//
// Acceptance for the matcher-core milestone: median step ratio >= 5x.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "match/candidate_index.h"
#include "match/pattern_utils.h"
#include "match/vf2.h"
#include "vf2_oracle.h"

namespace vqi {
namespace {

constexpr uint64_t kSeed = 20;
constexpr size_t kPatternsPerConfig = 12;
// Cap for the legacy engine so pathological draws cannot stall the table;
// capped rows are excluded from medians (and reported).
constexpr uint64_t kStepCap = 20000000;

struct Config {
  std::string family;
  size_t n = 0;
  size_t num_labels = 0;
  Graph target;
};

// Label alphabets follow the paper's domain: visual query targets are
// property graphs and molecule collections, whose vertex types number ~8-20
// (atom types, entity types). Two 4-label rows are kept as a floor — on
// label-poor graphs the index can only prune structurally, and the table
// reports that honestly.
std::vector<Config> MakeConfigs() {
  std::vector<Config> configs;
  Rng rng(kSeed);
  for (size_t n : {200u, 600u, 1500u}) {
    for (size_t num_labels : {8u, 16u}) {
      gen::LabelConfig labels;
      labels.num_vertex_labels = num_labels;
      labels.num_edge_labels = 2;
      Config config;
      config.family = "BA(m=3)";
      config.n = n;
      config.num_labels = num_labels;
      config.target = gen::BarabasiAlbert(n, 3, labels, rng);
      configs.push_back(std::move(config));
    }
  }
  for (size_t n : {300u, 1000u}) {
    for (size_t num_labels : {8u, 12u}) {
      gen::LabelConfig labels;
      labels.num_vertex_labels = num_labels;
      labels.num_edge_labels = 2;
      Config config;
      config.family = "WS(k=6)";
      config.n = n;
      config.num_labels = num_labels;
      config.target = gen::WattsStrogatz(n, 6, 0.1, labels, rng);
      configs.push_back(std::move(config));
    }
  }
  for (const char* family : {"BA", "WS"}) {
    gen::LabelConfig labels;
    labels.num_vertex_labels = 4;
    labels.num_edge_labels = 2;
    Config config;
    config.num_labels = 4;
    if (family[0] == 'B') {
      config.family = "BA(m=3)";
      config.n = 600;
      config.target = gen::BarabasiAlbert(600, 3, labels, rng);
    } else {
      config.family = "WS(k=6)";
      config.n = 1000;
      config.target = gen::WattsStrogatz(1000, 6, 0.1, labels, rng);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

std::vector<Graph> MakePatterns(const Graph& target, Rng& rng) {
  std::vector<Graph> patterns;
  for (size_t i = 0; i < kPatternsPerConfig; ++i) {
    size_t edges = 4 + rng.UniformInt(5);  // 4..8 edges
    std::optional<Graph> pattern;
    for (int attempt = 0; attempt < 8 && !pattern.has_value(); ++attempt) {
      pattern = RandomConnectedSubgraph(target, edges, rng);
    }
    if (pattern.has_value()) patterns.push_back(std::move(*pattern));
  }
  return patterns;
}

struct EngineRun {
  uint64_t count = 0;
  uint64_t steps = 0;
  bool capped = false;
  double seconds = 0;
};

// `index` null runs the legacy oracle; otherwise the library matcher over
// the shared index.
EngineRun RunEngine(const Graph& pattern, const Graph& target,
                    std::shared_ptr<const MatchIndex> index) {
  MatchOptions options;
  options.max_steps = kStepCap;
  Stopwatch timer;
  if (index == nullptr) {
    oracle::LegacyMatcher matcher(pattern, target, options);
    EngineRun run;
    run.count = matcher.CountEmbeddings();
    run.seconds = timer.ElapsedSeconds();
    run.steps = matcher.steps();
    run.capped = matcher.hit_step_limit();
    return run;
  }
  SubgraphMatcher matcher(pattern, target, std::move(index), options);
  EngineRun run;
  run.count = matcher.CountEmbeddings();
  run.seconds = timer.ElapsedSeconds();
  run.steps = matcher.steps();
  run.capped = matcher.hit_step_limit();
  return run;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void RunStepCutExperiment() {
  std::vector<Config> configs = MakeConfigs();
  Rng rng(kSeed ^ 0xE20);
  bench::Table table(
      "E20: VF2 search steps, legacy direct-adjacency vs CSR + candidate "
      "index (identical embeddings, identical match order)",
      {"target", "n", "labels", "patterns", "legacy steps (med)",
       "indexed steps (med)", "step ratio (med)", "legacy ms (med)",
       "indexed ms (med)", "speedup (med)"});
  std::vector<double> all_ratios;
  size_t capped_rows = 0;
  for (Config& config : configs) {
    std::vector<Graph> patterns = MakePatterns(config.target, rng);
    // One shared index per target, built once — the cached-serving shape.
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(config.target);
    std::vector<double> legacy_steps, indexed_steps, ratios, legacy_ms,
        indexed_ms, speedups;
    for (const Graph& pattern : patterns) {
      EngineRun legacy = RunEngine(pattern, config.target, nullptr);
      if (legacy.capped) {
        ++capped_rows;
        continue;
      }
      EngineRun indexed = RunEngine(pattern, config.target, index);
      legacy_steps.push_back(static_cast<double>(legacy.steps));
      indexed_steps.push_back(static_cast<double>(indexed.steps));
      ratios.push_back(static_cast<double>(legacy.steps) /
                       static_cast<double>(std::max<uint64_t>(1, indexed.steps)));
      legacy_ms.push_back(legacy.seconds * 1e3);
      indexed_ms.push_back(indexed.seconds * 1e3);
      speedups.push_back(legacy.seconds /
                         std::max(1e-9, indexed.seconds));
    }
    for (double r : ratios) all_ratios.push_back(r);
    table.AddRow({config.family, std::to_string(config.n),
                  std::to_string(config.num_labels),
                  std::to_string(ratios.size()),
                  bench::Fmt(Median(legacy_steps), 0),
                  bench::Fmt(Median(indexed_steps), 0),
                  bench::Fmt(Median(ratios), 1), bench::Fmt(Median(legacy_ms), 2),
                  bench::Fmt(Median(indexed_ms), 2),
                  bench::Fmt(Median(speedups), 1)});
  }
  table.Print();
  std::printf("overall median step ratio: %.1fx over %zu pattern runs "
              "(%zu legacy runs excluded at the %llu-step cap)\n",
              Median(all_ratios), all_ratios.size(), capped_rows,
              static_cast<unsigned long long>(kStepCap));
  std::printf("milestone gate (>=5x median step cut): %s\n\n",
              Median(all_ratios) >= 5.0 ? "PASS" : "FAIL");
}

void BM_LegacyEngine(benchmark::State& state) {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 2;
  Graph target = gen::BarabasiAlbert(600, 3, labels, rng);
  std::vector<Graph> patterns = MakePatterns(target, rng);
  size_t i = 0;
  for (auto _ : state) {
    EngineRun run =
        RunEngine(patterns[i++ % patterns.size()], target, nullptr);
    benchmark::DoNotOptimize(run.count);
  }
}
BENCHMARK(BM_LegacyEngine)->Unit(benchmark::kMillisecond);

void BM_IndexedEngine(benchmark::State& state) {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 2;
  Graph target = gen::BarabasiAlbert(600, 3, labels, rng);
  std::vector<Graph> patterns = MakePatterns(target, rng);
  std::shared_ptr<const MatchIndex> index = MatchIndex::Build(target);
  size_t i = 0;
  for (auto _ : state) {
    EngineRun run = RunEngine(patterns[i++ % patterns.size()], target, index);
    benchmark::DoNotOptimize(run.count);
  }
}
BENCHMARK(BM_IndexedEngine)->Unit(benchmark::kMillisecond);

void BM_MatchIndexBuild(benchmark::State& state) {
  Rng rng(kSeed);
  gen::LabelConfig labels;
  labels.num_vertex_labels = 8;
  labels.num_edge_labels = 2;
  Graph target =
      gen::BarabasiAlbert(static_cast<size_t>(state.range(0)), 3, labels, rng);
  for (auto _ : state) {
    std::shared_ptr<const MatchIndex> index = MatchIndex::Build(target);
    benchmark::DoNotOptimize(index->csr.NumEdges());
  }
}
BENCHMARK(BM_MatchIndexBuild)
    ->Arg(200)
    ->Arg(1500)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqi

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  vqi::RunStepCutExperiment();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
