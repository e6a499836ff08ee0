// vqibench: runs one workload of the vqlib benchmark and prints its metrics.
//
//   vqibench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--fast]
//   vqibench --self-test     (checks the answer oracle on hand-counted cases)
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A readable table of every metric goes to standard error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/stopwatch.h"
#include "workload.h"

namespace vqibench {

Spec SpecFor(const std::string& workload, bool fast) {
  Spec spec;
  spec.name = workload;
  // Minor batches are cheap, so many of them make a steady median. Majors
  // alternate drifting away and back on collections, so an even number of
  // them leaves a collection of molecules again.
  auto repeat = [](std::vector<char> unit, size_t times) {
    std::vector<char> stream;
    for (size_t i = 0; i < times; ++i) {
      stream.insert(stream.end(), unit.begin(), unit.end());
    }
    return stream;
  };
  const std::vector<char> collection_stream = repeat({'m', 'm', 'm', 'M'}, 8);
  const std::vector<char> network_stream =
      repeat({'m', 'm', 'm', 'm', 'm', 'm', 'M'}, 5);
  const std::vector<char> serve_stream = repeat({'m', 'm', 'M'}, 10);
  if (workload == "collection") {
    spec.graphs = fast ? 40 : 1000;
    spec.build_reps = 3;
    spec.batches = collection_stream;
    // Uniform over a warmed pool: a whole-collection hit costs in
    // proportion to its list of matched graphs (up to 1,000 here), so a
    // median over a few popular items would follow their sizes.
    spec.pool = 128;
    spec.zipf_exponent = 0;
    spec.warm = true;
  } else if (workload == "network") {
    spec.network = true;
    spec.vertices = fast ? 3000 : 50000;
    spec.build_reps = 3;
    spec.batches = network_stream;
    spec.pool = 256;
    spec.warm = true;
  } else if (workload == "serve_zipf") {
    spec.graphs = fast ? 40 : 300;
    spec.build_reps = 5;
    spec.batches = serve_stream;
    spec.pool = 128;
    spec.live_batches = 2;
  } else if (workload == "serve_unique") {
    spec.graphs = fast ? 40 : 300;
    spec.build_reps = 5;
    spec.batches = serve_stream;
    spec.router = true;
    spec.zipf = false;
    spec.closed_rounds = 1;
  } else {
    spec.name.clear();
    return spec;
  }
  if (fast) {
    spec.setup_reps = 1;
    spec.setup_budget_s = 0;
    spec.build_reps = 1;
    spec.batches = {'m', 'M', 'm', 'M'};
    spec.pool = 8;
    spec.oracle_sample = 5;
    spec.replay = 5;
    spec.closed_rounds = 1;
  }
  return spec;
}

namespace {

// Checks the oracle on hand-counted cases (--self-test).
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  vqi::Graph k4;
  for (int i = 0; i < 4; ++i) k4.AddVertex(0);
  for (vqi::VertexId u = 0; u < 4; ++u) {
    for (vqi::VertexId v = u + 1; v < 4; ++v) k4.AddEdge(u, v, 0);
  }
  vqi::Graph triangle;
  for (int i = 0; i < 3; ++i) triangle.AddVertex(0);
  triangle.AddEdge(0, 1, 0);
  triangle.AddEdge(1, 2, 0);
  triangle.AddEdge(0, 2, 0);
  expect(OracleEmbeddings(triangle, k4, 0) == 24,
         "a triangle maps 24 ways into K4 (automorphic images count)");
  expect(OracleEmbeddings(triangle, k4, 10) == 10, "the cap stops the count");

  // A star: centre labelled 0, three leaves reached over edge label 2 and
  // one over edge label 0, all leaves labelled 1.
  vqi::Graph star;
  star.AddVertex(0);
  for (int i = 0; i < 4; ++i) star.AddVertex(1);
  for (vqi::VertexId leaf = 1; leaf <= 3; ++leaf) star.AddEdge(0, leaf, 2);
  star.AddEdge(0, 4, 0);
  vqi::Graph edge;
  edge.AddVertex(0);
  edge.AddVertex(1);
  edge.AddEdge(0, 1, 2);
  expect(OracleEmbeddings(edge, star, 0) == 3, "edge labels must match");
  vqi::Graph cherry;
  cherry.AddVertex(1);
  cherry.AddVertex(0);
  cherry.AddVertex(1);
  cherry.AddEdge(0, 1, 2);
  cherry.AddEdge(1, 2, 2);
  expect(OracleEmbeddings(cherry, star, 0) == 6, "two leaves in order: 3 * 2");
  vqi::Graph wrong = edge;
  wrong.SetVertexLabel(1, 0);
  expect(!OracleContains(wrong, star), "vertex labels must match");
  vqi::Graph two_parts = edge;
  two_parts.AddVertex(0);
  expect(!OracleConnected(two_parts) && OracleConnected(star),
         "connectivity");

  TripleCounts triples;
  AddTriples(star, &triples);
  expect(triples.size() == 4 && (triples[{0, 2, 1}] == 3) &&
             (triples[{1, 2, 0}] == 3) && (triples[{0, 0, 1}] == 1),
         "a mixed-label edge counts under both orientations");
  TripleCounts same;
  AddTriples(k4, &same);
  expect(same.size() == 1 && (same[{0, 0, 0}] == 6),
         "an equal-label edge counts once");
  TripleCounts ranked{{{0, 0, 1}, 2}, {{0, 1, 0}, 2}, {{0, 0, 0}, 5},
                      {{1, 0, 0}, 9}};
  std::vector<Suggestion> top = TopSuggestions(ranked, 0, 2);
  expect(top.size() == 2 && top[0] == Suggestion{0, 0, 5} &&
             top[1] == Suggestion{0, 1, 2},
         "support descending, then (edge, to) ascending, cut at k");
  LabelCounts labels;
  AddLabels(star, &labels);
  expect(labels.vertices[0] == 1 && labels.vertices[1] == 4 &&
             labels.edges[2] == 3 && labels.edges[0] == 1,
         "label recount");
  std::fprintf(stderr, "oracle self-test: %d failures\n", failures);
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--fast") {
      args->fast = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

void PrintMetrics(const char* title,
                  const std::map<std::string, std::pair<double, std::string>>&
                      metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const auto& [name, value] : metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", name.c_str(), value.first,
                 value.second.c_str());
  }
}

void PrintJson(FILE* out, const Report& report, bool layers) {
  const auto& metrics = layers ? report.layer : report.e2e;
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.unexpected == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), value.first, value.second.c_str());
    sep = ", ";
  }
  std::fprintf(out, "}}\n");
}

int Run(const Args& args) {
  Spec spec = SpecFor(args.workload, args.fast);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;

  // Every phase but the closed loop runs on one CPU (see UseOneCpu).
  if (!UseOneCpu(true)) std::fprintf(stderr, "note: could not set affinity\n");

  // Set-up: generate the inputs, start the fleet and its HTTP server, and
  // build every graph's match index. One set-up of a molecule workload takes
  // a few milliseconds, so it is repeated until setup_budget_s is spent (at
  // least setup_reps times); setup_s is the median.
  std::unique_ptr<Data> data;
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s, setup_raw_s, load_s;
  double fleet_mb = 0;
  constexpr size_t kMaxSetups = 400;
  vqi::Stopwatch setup_clock;
  double before = report.speed.Sample();
  for (size_t rep = 0;
       rep < kMaxSetups && (rep < spec.setup_reps ||
                            setup_clock.ElapsedSeconds() < spec.setup_budget_s);
       ++rep) {
    fleet.reset();
    data.reset();
    vqi::Stopwatch watch;
    data = std::make_unique<Data>(MakeData(spec));
    load_s.push_back(watch.ElapsedSeconds());
    double rss = CurrentRssMb();
    fleet = std::make_unique<Fleet>(spec, data->db);
    // Later set-ups reuse the memory the first fleet freed.
    if (rep == 0) fleet_mb = CurrentRssMb() - rss;
    if (!fleet->WarmUp()) {
      std::fprintf(stderr, "fleet failed to start\n");
      return 1;
    }
    double raw = watch.ElapsedSeconds();
    double after = report.speed.Sample();
    setup_s.push_back(Speed::Scale(raw, before, after));
    setup_raw_s.push_back(raw);
    before = after;
  }
  std::fprintf(stderr, "set-ups: %zu\n", setup_s.size());
  Owner owner;
  owner.construction_triples = CountTriples(data->db);

  double cpu_start = CpuSeconds();
  RunOffline(spec, *data, *fleet, &owner, &report);
  double offline_cpu_s = CpuSeconds() - cpu_start;
  RunOnline(spec, args, *data, *fleet, &owner, &report);

  report.E2E("setup_s", Median(setup_s), "s");
  report.E2E("build_s", Median(owner.build_s), "s");
  report.E2E("maintain_minor_ms", Median(owner.minor_ms), "ms");
  report.E2E("maintain_major_s", Median(owner.major_s), "s");
  report.raw["setup_s"] = Median(setup_raw_s);
  report.raw["build_s"] = Median(owner.build_raw_s);
  report.raw["maintain_minor_ms"] = Median(owner.minor_raw_ms);
  report.raw["maintain_major_s"] = Median(owner.major_raw_s);
  report.Layer("vqi.pattern_coverage", owner.coverage, "fraction");
  report.E2E("rss_mb", PeakRssMb(), "MiB");
  report.Layer("graph.load_s", Median(load_s), "s");
  report.Layer("shard.fleet_mb", fleet_mb, "MiB");
  report.Layer("process.cpu_s", offline_cpu_s + owner.online_cpu_s, "s");
  report.Layer("machine.kernel_ms", report.speed.KernelMs(), "ms");
  if (args.trace) TraceOffline(spec, owner, &report);
  for (const auto& [name, value] : report.e2e) {
    if (!(value.first > 0)) report.Op(false, name + " has no sample");
  }
  fleet.reset();

  PrintMetrics("end-to-end (at the reference speed)", report.e2e);
  std::fprintf(stderr, "timings as measured (reference kernel %.4f ms)\n",
               report.speed.KernelMs());
  for (const auto& [name, value] : report.raw) {
    std::fprintf(stderr, "  %-28s %16.6f\n", name.c_str(), value);
  }
  if (args.trace) PrintMetrics("per-layer", report.layer);
  std::fprintf(stderr, "realisation checks failed: %zu\n", owner.unrealised);
  std::fprintf(stderr, "attempted %llu, failed %llu (%llu unexpected)\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               static_cast<unsigned long long>(report.unexpected));
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "  FAILED: %s\n", problem.c_str());
  }
  if (args.trace) {
    // End-to-end numbers of the traced run, for the tracing overhead.
    std::fprintf(stderr, "traced-run end-to-end: ");
    PrintJson(stderr, report, false);
  }
  PrintJson(stdout, report, args.trace);
  return 0;
}

}  // namespace
}  // namespace vqibench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return vqibench::SelfTest();
  }
  vqibench::Args args;
  if (!vqibench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vqibench --workload <collection|network|serve_zipf|"
                 "serve_unique> --seed <n> --seconds <s> --trace <0|1> "
                 "[--fast]\n");
    return 2;
  }
  return vqibench::Run(args);
}
