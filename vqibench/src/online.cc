// Online path: a user draws queries and the fleet answers them over HTTP.
// The load generator runs in this process beside the fleet it drives.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "match/candidate_index.h"
#include "match/canonical.h"
#include "match/vf2.h"
#include "net/http_client.h"
#include "net/json.h"
#include "oracle.h"
#include "sim/workload.h"
#include "vqi/suggestion.h"
#include "workload.h"

namespace vqibench {
namespace {

using vqi::Graph;
using vqi::GraphId;
using vqi::Stopwatch;
using Clock = std::chrono::steady_clock;

// Every generator connection and fleet thread together stay within the
// machine's four cores: two connections drive two HTTP workers, which block
// on two service workers (or on four single-threaded replicas through the
// router's fan-out).
constexpr size_t kConnections = 2;
constexpr size_t kHttpThreads = 2;
constexpr uint64_t kEmbeddingCap = 100;
// Suggestions ask for 1 to 10 continuations in turn, as users set top_k
// (the library's default is 5).
constexpr size_t kMaxTopK = 10;
constexpr double kRate = 350;         // open-loop offered rate, req/s
constexpr double kOpenShare = 0.5;    // open-loop length, share of --seconds
// The open loop runs in segments of about a second, with the reference
// kernel sampled between them (see Speed).
constexpr size_t kOpenSegments = 10;

enum Kind { kWhole = 0, kLookup = 1, kSuggest = 2 };
const char* const kKindNames[] = {"whole", "lookup", "suggest"};
// Fixed kind order of the stream (3 whole : 4 lookup : 3 suggest), so every
// seed sends the same number of each kind at the same positions.
constexpr Kind kSchedule[10] = {kWhole, kLookup, kSuggest, kWhole, kLookup,
                                kSuggest, kWhole, kLookup, kSuggest, kLookup};

struct Item {
  Kind kind = kWhole;
  Graph pattern;
  GraphId target = vqi::kAllGraphs;
  vqi::VertexId focus = 0;
  size_t top_k = 0;
  std::string body;
};

struct Sample {
  double latency_ms = 0;
  double late_ms = 0;
  int status = 0;  // HTTP status; 0 = transport failure
  std::string body;
};

std::string BodyFor(const Item& item) {
  vqi::net::JsonValue vertices = vqi::net::JsonValue::Array();
  for (vqi::VertexId v = 0; v < item.pattern.NumVertices(); ++v) {
    vertices.Append(vqi::net::JsonValue::Number(item.pattern.VertexLabel(v)));
  }
  vqi::net::JsonValue edges = vqi::net::JsonValue::Array();
  for (const vqi::Edge& e : item.pattern.Edges()) {
    vqi::net::JsonValue edge = vqi::net::JsonValue::Array();
    edge.Append(vqi::net::JsonValue::Number(e.u));
    edge.Append(vqi::net::JsonValue::Number(e.v));
    edge.Append(vqi::net::JsonValue::Number(e.label));
    edges.Append(std::move(edge));
  }
  vqi::net::JsonValue pattern = vqi::net::JsonValue::Object();
  pattern.Set("vertices", std::move(vertices));
  pattern.Set("edges", std::move(edges));
  vqi::net::JsonValue body = vqi::net::JsonValue::Object();
  body.Set("kind", vqi::net::JsonValue::String(
                       item.kind == kSuggest ? "suggest" : "match_count"));
  body.Set("pattern", std::move(pattern));
  if (item.kind == kSuggest) {
    body.Set("focus", vqi::net::JsonValue::Number(item.focus));
    body.Set("top_k", vqi::net::JsonValue::Number(item.top_k));
  } else {
    body.Set("target",
             vqi::net::JsonValue::Number(static_cast<double>(item.target)));
    body.Set("max_embeddings", vqi::net::JsonValue::Number(kEmbeddingCap));
  }
  return body.Dump();
}

vqi::QueryRequest RequestFor(const Item& item) {
  vqi::QueryRequest request;
  request.kind =
      item.kind == kSuggest ? vqi::QueryKind::kSuggest : vqi::QueryKind::kMatchCount;
  request.pattern = item.pattern;
  request.target = item.kind == kSuggest ? vqi::kAllGraphs : item.target;
  request.max_embeddings = kEmbeddingCap;
  request.focus = item.focus;
  request.top_k = item.kind == kSuggest ? item.top_k : 5;
  return request;
}

// The request stream: items per kind, and the item each position sends.
struct Stream {
  std::vector<Item> items;
  std::vector<size_t> order;  // position -> index into items
};

// `targets`: the graphs lookups may name.
Stream MakeStream(const Spec& spec, const Data& data, uint64_t seed,
                  size_t length, const std::vector<GraphId>& targets) {
  size_t per_kind[3] = {0, 0, 0};
  for (size_t j = 0; j < length; ++j) ++per_kind[kSchedule[j % 10]];
  // Zipf traffic draws from a fixed pool per kind; unique traffic needs a
  // fresh pattern for every match request.
  size_t want = spec.zipf ? spec.pool * 3 : per_kind[kWhole] + per_kind[kLookup];
  vqi::WorkloadConfig config;
  config.num_queries = want * (spec.zipf ? 1 : 4);
  config.min_edges = 3;
  config.max_edges = spec.zipf ? 6 : 8;
  config.seed = seed ^ 0x5EEDull;
  std::vector<Graph> drawn =
      spec.network ? vqi::GenerateNetworkWorkload(data.network, config)
                   : vqi::GenerateDbWorkload(data.db, config);
  std::vector<Graph> patterns;
  std::set<std::string> seen;
  for (Graph& g : drawn) {
    if (!spec.zipf && !seen.insert(vqi::CanonicalCode(g)).second) continue;
    patterns.push_back(std::move(g));
  }
  if (!spec.zipf && patterns.size() < want) {
    std::fprintf(stderr, "note: only %zu distinct patterns for %zu requests\n",
                 patterns.size(), want);
  }
  vqi::Rng rng(seed ^ 0x57AEull);
  Stream stream;
  size_t next_pattern = 0;
  auto take_pattern = [&]() -> const Graph& {
    return patterns[next_pattern++ % patterns.size()];
  };
  // Suggestions are keyed by the focus label, not the pattern, so they
  // cycle through the patterns on their own counter and leave the distinct
  // ones to the match requests.
  size_t next_suggest = 0;
  size_t suggestions = 0;
  auto make_item = [&](Kind kind) {
    Item item;
    item.kind = kind;
    if (kind == kSuggest) {
      // Users extend the dominant label (carbon in molecules); suggestions
      // for it change with any batch, which keeps the stale-index fault
      // visible on every suggestion after one.
      for (size_t tries = 0; tries < patterns.size(); ++tries) {
        const Graph& p = patterns[next_suggest++ % patterns.size()];
        for (vqi::VertexId v = 0; v < p.NumVertices(); ++v) {
          if (p.VertexLabel(v) == 0) {
            item.pattern = p;
            item.focus = v;
            break;
          }
        }
        if (!item.pattern.Empty()) break;
      }
      item.top_k = 1 + suggestions++ % kMaxTopK;
    } else {
      item.pattern = take_pattern();
      if (kind == kLookup) item.target = targets[rng.UniformInt(targets.size())];
    }
    item.body = BodyFor(item);
    return item;
  };
  if (spec.zipf) {
    std::vector<double> cdf;
    double total = 0;
    for (size_t r = 0; r < spec.pool; ++r) {
      total += 1.0 / std::pow(r + 1.0, spec.zipf_exponent);
      cdf.push_back(total);
    }
    for (int k = 0; k < 3; ++k) {
      for (size_t r = 0; r < spec.pool; ++r) {
        stream.items.push_back(make_item(static_cast<Kind>(k)));
      }
    }
    for (size_t j = 0; j < length; ++j) {
      double u = rng.UniformDouble() * total;
      size_t rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
      rank = std::min(rank, spec.pool - 1);
      stream.order.push_back(kSchedule[j % 10] * spec.pool + rank);
    }
  } else {
    for (size_t j = 0; j < length; ++j) {
      stream.order.push_back(stream.items.size());
      stream.items.push_back(make_item(kSchedule[j % 10]));
    }
  }
  return stream;
}

// Sends positions [begin, end) of the stream over kConnections keep-alive
// connections. rate > 0: open loop, each request due at begin + i / rate
// and timed from when it was due; rate == 0: closed loop.
void Drive(uint16_t port, const Stream& stream, size_t begin, size_t end,
           double rate, std::vector<Sample>* samples) {
  std::atomic<size_t> next{begin};
  const Clock::time_point start = Clock::now();
  auto worker = [&]() {
    vqi::net::HttpClient client;
    for (size_t j = next++; j < end; j = next++) {
      Clock::time_point due = start;
      if (rate > 0) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>((j - begin) / rate));
        std::this_thread::sleep_until(due);
      }
      Clock::time_point sent = Clock::now();
      if (rate == 0) due = sent;
      Sample& s = (*samples)[j];
      s.late_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) {
        continue;
      }
      auto response =
          client.Roundtrip("POST", "/query", stream.items[stream.order[j]].body);
      s.latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      if (!response.ok()) {
        client.Close();
        continue;
      }
      s.status = response.value().status;
      s.body = std::move(response.value().body);
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
}

// What ShardedRouter answers for a suggestion: each shard's own top k,
// supports summed over the shards that kept a continuation, re-ranked and
// cut at k. A continuation one shard cut is summed from the other shards
// alone, so its support comes out short (a known fault of the router).
std::vector<Suggestion> RouterMerged(const std::vector<TripleCounts>& shards,
                                     vqi::Label from, size_t k) {
  TripleCounts summed;
  for (const TripleCounts& shard : shards) {
    for (const Suggestion& s : TopSuggestions(shard, from, k)) {
      summed[{from, s.edge, s.to}] += s.support;
    }
  }
  return TopSuggestions(summed, from, k);
}

// Checks responses against the oracle. Collection state is frozen while a
// segment runs, so a segment's responses are checked at its end; oracle
// answers are memoised per item until the collection changes.
class Checker {
 public:
  // `shard_triples`: label triples of each shard's slice as the router
  // copied it (empty for a single service).
  Checker(const Stream& stream, const vqi::GraphDatabase& db,
          TripleCounts construction_triples,
          std::vector<TripleCounts> shard_triples, std::set<size_t> sampled)
      : stream_(stream), db_(db),
        construction_(std::move(construction_triples)),
        shards_(std::move(shard_triples)), sampled_(std::move(sampled)) {}

  /// Suggestions that failed as the stale index or the router merge answers.
  size_t stale() const { return stale_; }
  size_t merged() const { return merged_; }

  /// Forgets memoised oracle answers; call after the collection changes.
  void CollectionChanged() { memo_.clear(); }

  void Check(const std::vector<Sample>& samples, size_t begin, size_t end,
             Report* report) {
    TripleCounts current = CountTriples(db_);
    for (size_t j = begin; j < end; ++j) {
      const Item& item = stream_.items[stream_.order[j]];
      const std::string what = std::string(kKindNames[item.kind]) +
                               " request " + std::to_string(j);
      const Sample& s = samples[j];
      if (s.status != 200) {
        report->Op(false, what + ": HTTP status " + std::to_string(s.status));
        continue;
      }
      auto json = vqi::net::ParseJson(s.body);
      if (!json.ok() || !json.value().is_object()) {
        report->Op(false, what + ": unparsable response");
        continue;
      }
      if (item.kind == kSuggest) {
        std::vector<Suggestion> got = Suggestions(json.value());
        Label from = item.pattern.VertexLabel(item.focus);
        bool fresh = got == TopSuggestions(current, from, item.top_k);
        // Two known faults, failures but expected ones: a single service
        // answers from the index built at its construction, and the router
        // sums its shards' cut lists.
        bool stale = !fresh && shards_.empty() &&
                     got == TopSuggestions(construction_, from, item.top_k);
        bool merged = !fresh && !shards_.empty() &&
                      got == RouterMerged(shards_, from, item.top_k);
        stale_ += stale;
        merged_ += merged;
        report->Op(fresh, what + ": suggestions differ from a recount",
                   stale || merged);
        continue;
      }
      if (!sampled_.count(j)) {
        report->Op(true);
        continue;
      }
      auto [count, matched] = Expected(stream_.order[j], item);
      std::vector<GraphId> got_graphs;
      const vqi::net::JsonValue* g = json.value().Find("matched_graphs");
      const vqi::net::JsonValue* c = json.value().Find("embedding_count");
      bool ok = g != nullptr && g->is_array() && c != nullptr && c->is_number();
      if (ok) {
        for (const auto& id : g->array()) {
          got_graphs.push_back(static_cast<GraphId>(id.number_value()));
        }
        std::sort(got_graphs.begin(), got_graphs.end());
        ok = got_graphs == matched &&
             static_cast<uint64_t>(c->number_value()) == count;
      }
      report->Op(ok, what + ": match result differs from the oracle");
    }
  }

 private:
  using Label = vqi::Label;

  static std::vector<Suggestion> Suggestions(const vqi::net::JsonValue& json) {
    std::vector<Suggestion> out;
    const vqi::net::JsonValue* list = json.Find("suggestions");
    if (list == nullptr || !list->is_array()) return out;
    for (const auto& e : list->array()) {
      out.push_back({static_cast<Label>(e.Find("edge_label")->number_value()),
                     static_cast<Label>(e.Find("to_label")->number_value()),
                     static_cast<uint64_t>(e.Find("support")->number_value())});
    }
    return out;
  }

  std::pair<uint64_t, std::vector<GraphId>> Expected(size_t key,
                                                     const Item& item) {
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    uint64_t total = 0;
    std::vector<GraphId> matched;
    auto one = [&](const Graph& g) {
      uint64_t n = OracleEmbeddings(item.pattern, g, kEmbeddingCap);
      total += n;
      if (n > 0) matched.push_back(g.id());
    };
    if (item.target == vqi::kAllGraphs) {
      for (const Graph& g : db_.graphs()) one(g);
    } else {
      one(db_.Get(item.target));
    }
    std::sort(matched.begin(), matched.end());
    return memo_[key] = {total, matched};
  }

  const Stream& stream_;
  const vqi::GraphDatabase& db_;
  const TripleCounts construction_;
  const std::vector<TripleCounts> shards_;
  const std::set<size_t> sampled_;
  size_t stale_ = 0;
  size_t merged_ = 0;
  std::map<size_t, std::pair<uint64_t, std::vector<GraphId>>> memo_;
};

// --- /metrics scraping ------------------------------------------------------

struct Scrape {
  std::map<double, double> queue_wait;  // le -> cumulative count, services
  double match_steps = 0;
};

Scrape ParseScrape(const std::string& text) {
  Scrape scrape;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    double value = std::strtod(line.c_str() + space + 1, nullptr);
    if (line.rfind("vqi_match_steps_total", 0) == 0) {
      scrape.match_steps += value;
    } else if (line.rfind("vqi_pool_queue_wait_ms_bucket", 0) == 0 &&
               line.find("pool=\"") == std::string::npos) {
      // Service worker pools only: the HTTP and router pools carry a pool
      // label.
      size_t le = line.find("le=\"");
      if (le == std::string::npos) continue;
      std::string bound = line.substr(le + 4, line.find('"', le + 4) - le - 4);
      double b = bound == "+Inf" ? INFINITY : std::stod(bound);
      scrape.queue_wait[b] += value;
    }
  }
  return scrape;
}

// Quantile of the difference of two cumulative histograms, interpolated
// linearly inside the bucket, as the registry's own estimator does.
double HistogramQuantile(const std::map<double, double>& before,
                         const std::map<double, double>& after, double q) {
  std::vector<std::pair<double, double>> buckets;
  for (const auto& [bound, count] : after) {
    auto it = before.find(bound);
    buckets.emplace_back(bound, count - (it == before.end() ? 0 : it->second));
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0;
  double target = q * buckets.back().second;
  double lower = 0, below = 0;
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= target) {
      if (std::isinf(bound)) return lower;
      double in_bucket = cumulative - below;
      double share = in_bucket > 0 ? (target - below) / in_bucket : 0;
      return lower + share * (bound - lower);
    }
    lower = bound;
    below = cumulative;
  }
  return lower;
}

std::string Get(uint16_t port, const std::string& path, double* ms) {
  vqi::net::HttpClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return "";
  Stopwatch watch;
  auto response = client.Roundtrip("GET", path);
  if (ms != nullptr) *ms = watch.ElapsedMillis();
  return response.ok() ? response.value().body : "";
}

// Execute-stage times of the match requests the fleet's services ran, read
// from each service's trace ring at every quiescent point of the stream,
// before the ring turns over. A cache hit has no execute stage, so these are
// the requests that reached the matcher.
class ExecuteStages {
 public:
  explicit ExecuteStages(Fleet& fleet) : services_(fleet.Services()) {
    for (vqi::QueryService* service : services_) {
      uint64_t last = 0;
      for (const auto& trace : service->traces().Recent()) {
        last = std::max(last, trace.id);
      }
      last_id_.push_back(last);
    }
  }

  void Collect() {
    for (size_t i = 0; i < services_.size(); ++i) {
      uint64_t last = last_id_[i];
      for (const auto& trace : services_[i]->traces().Recent()) {
        if (trace.id <= last_id_[i]) continue;
        last = std::max(last, trace.id);
        if (trace.kind != "match") continue;
        for (const auto& stage : trace.stages) {
          if (stage.name == "execute") match_ms_.push_back(stage.ms);
        }
      }
      last_id_[i] = last;
    }
  }

  const std::vector<double>& match_ms() const { return match_ms_; }

 private:
  std::vector<vqi::QueryService*> services_;
  std::vector<uint64_t> last_id_;
  std::vector<double> match_ms_;
};

// --- Traced replay ------------------------------------------------------------

// Replays sampled requests through each public entry in turn, cache
// invalidated before every call so each entry does the full work, and
// reports per-layer self times: wire = HTTP - Handle, codec = Handle -
// Execute, route = router Execute - slowest direct replica Execute,
// service = that replica's Execute - its own traced execute stage. The
// matcher and the suggestion index are also timed on their own, on the same
// inputs, outside the service (match.direct_p50_ms, vqi.suggest_direct_us).
void Replay(const Spec& spec, const Stream& stream, Data& data, Fleet& fleet,
            uint64_t seed, Report* report) {
  vqi::shard::ShardedRouter* router = fleet.router();
  const size_t shards = router != nullptr ? router->num_shards() : 1;
  // Per-shard inputs of the direct calls: member graphs, their match
  // indexes, and a suggestion index over the slice.
  std::vector<std::vector<const Graph*>> slice(shards);
  for (const Graph& g : data.db.graphs()) {
    size_t s = router != nullptr ? router->shard_map().OwnerOf(g.id()) : 0;
    slice[s].push_back(&g);
  }
  std::map<GraphId, std::shared_ptr<const vqi::MatchIndex>> indexes;
  std::vector<vqi::SuggestionIndex> suggest(shards);
  for (size_t s = 0; s < shards; ++s) {
    vqi::GraphDatabase part;
    for (const Graph* g : slice[s]) {
      indexes[g->id()] = vqi::MatchIndex::Build(*g);
      part.Add(*g);
    }
    suggest[s] = vqi::SuggestionIndex::Build(part);
  }

  std::vector<size_t> picks[3];
  {
    vqi::Rng rng(seed ^ 0x2E91A7ull);
    std::vector<size_t> positions(stream.order.size());
    for (size_t j = 0; j < positions.size(); ++j) positions[j] = j;
    rng.Shuffle(positions);
    for (size_t j : positions) {
      Kind k = stream.items[stream.order[j]].kind;
      if (picks[k].size() < spec.replay) picks[k].push_back(j);
    }
  }

  std::vector<double> http, wire, codec, route, service, span, match_ms,
      suggest_us;
  uint64_t direct_steps = 0;
  double direct_match_ms = 0;
  vqi::net::HttpClient client;
  for (int k = 0; k < 3; ++k) {
    for (size_t j : picks[k]) {
      const Item& item = stream.items[stream.order[j]];
      vqi::QueryRequest request = RequestFor(item);
      if (!client.connected() &&
          !client.Connect("127.0.0.1", fleet.port()).ok()) {
        continue;
      }
      fleet.InvalidateCache();
      Stopwatch t_http;
      auto response = client.Roundtrip("POST", "/query", item.body);
      double http_ms = t_http.ElapsedMillis();
      if (!response.ok()) {
        client.Close();
        continue;
      }
      vqi::net::HttpRequest raw;
      raw.method = "POST";
      raw.target = "/query";
      raw.version = "HTTP/1.1";
      raw.body = item.body;
      fleet.InvalidateCache();
      Stopwatch t_handle;
      fleet.serving().Handle(raw);
      double handle_ms = t_handle.ElapsedMillis();
      fleet.InvalidateCache();
      Stopwatch t_exec;
      fleet.Execute(request);
      double exec_ms = t_exec.ElapsedMillis();

      // The legs: every shard for whole-collection matches and suggestions,
      // the owner for a lookup. Legs run in parallel, so the slowest sets
      // the time. Each leg's own execute stage (the matcher or suggestion
      // index inside QueryService) comes from the trace it just recorded.
      std::vector<size_t> legs;
      if (router == nullptr) {
        legs.push_back(0);
      } else if (item.kind == kLookup) {
        legs.push_back(router->shard_map().OwnerOf(item.target));
      } else {
        for (size_t s = 0; s < shards; ++s) legs.push_back(s);
      }
      auto execute_stage = [](const vqi::QueryService& service) {
        std::vector<vqi::obs::RequestTrace> recent = service.traces().Recent();
        return recent.empty() ? 0.0 : recent.back().StageMs("execute");
      };
      double leg_ms = exec_ms;
      double span_ms = 0;
      size_t slowest = legs[0];
      if (router == nullptr) {
        span_ms = execute_stage(*fleet.Services()[0]);
      } else {
        leg_ms = 0;
        for (size_t s : legs) {
          vqi::QueryService& replica = router->shard(s, 0);
          replica.InvalidateCache();
          Stopwatch t_leg;
          replica.Execute(request);
          double ms = t_leg.ElapsedMillis();
          if (ms > leg_ms) {
            leg_ms = ms;
            slowest = s;
            span_ms = execute_stage(replica);
          }
        }
      }

      double direct_ms = 0;
      if (item.kind == kSuggest) {
        constexpr int kRepeats = 20;  // one call is a few microseconds
        Stopwatch t_direct;
        for (int r = 0; r < kRepeats; ++r) {
          suggest[slowest].SuggestNextEdges(item.pattern, item.focus,
                                            item.top_k);
        }
        direct_ms = t_direct.ElapsedMillis() / kRepeats;
        suggest_us.push_back(direct_ms * 1000);
      } else {
        vqi::MatchOptions options;
        options.use_index = true;
        options.max_embeddings = kEmbeddingCap;
        Stopwatch t_direct;
        for (const Graph* g : slice[slowest]) {
          if (item.target != vqi::kAllGraphs && g->id() != item.target) {
            continue;
          }
          vqi::SubgraphMatcher matcher(item.pattern, *g, indexes[g->id()],
                                       options);
          matcher.CountEmbeddings();
          direct_steps += matcher.steps();
        }
        direct_ms = t_direct.ElapsedMillis();
        direct_match_ms += direct_ms;
        match_ms.push_back(direct_ms);
      }
      // The decomposition covers whole-collection matches, the requests of
      // query_p50_ms: medians of one kind add up nearly exactly, medians of
      // a bimodal mix of kinds do not. Per request the self times add up to
      // the HTTP time exactly; the medians leave a remainder.
      if (item.kind != kWhole) continue;
      http.push_back(http_ms);
      wire.push_back(http_ms - handle_ms);
      codec.push_back(handle_ms - exec_ms);
      route.push_back(router != nullptr ? exec_ms - leg_ms : 0);
      service.push_back(leg_ms - span_ms);
      span.push_back(span_ms);
    }
  }
  double layers = Median(wire) + Median(codec) + Median(route) +
                  Median(service) + Median(span);
  report->Layer("net.http_p50_ms", Median(http), "ms");
  report->Layer("net.wire_p50_ms", Median(wire), "ms");
  report->Layer("net.codec_p50_ms", Median(codec), "ms");
  report->Layer("shard.route_p50_ms", Median(route), "ms");
  report->Layer("service.self_p50_ms", Median(service), "ms");
  report->Layer("trace.execute_p50_ms", Median(span), "ms");
  report->Layer("trace.unaccounted_ms", Median(http) - layers, "ms");
  report->Layer("match.direct_p50_ms", Median(match_ms), "ms");
  report->Layer("match.steps_per_ms",
                direct_match_ms > 0 ? direct_steps / direct_match_ms : 0,
                "1/ms");
  report->Layer("vqi.suggest_direct_us", Median(suggest_us), "us");
}

}  // namespace

// --- Fleet ----------------------------------------------------------------------

Fleet::Fleet(const Spec& spec, const vqi::GraphDatabase& db) {
  vqi::obs::MetricsRegistry* registry = nullptr;
  if (!spec.router) {
    vqi::QueryServiceOptions options;
    options.num_threads = 2;
    service_ = std::make_unique<vqi::QueryService>(db, options);
    registry = &service_->metrics();
    vqi::net::QueryServing::Options serving;
    serving.metrics = registry;
    serving_ = std::make_unique<vqi::net::QueryServing>(service_.get(), serving);
  } else {
    vqi::shard::ShardedRouterOptions options;
    options.num_shards = 2;
    options.num_replicas = 2;
    options.shard_options.num_threads = 1;
    router_ = std::make_unique<vqi::shard::ShardedRouter>(db, options);
    registry = &router_->metrics();
    vqi::net::QueryServing::Options serving;
    serving.metrics = registry;
    serving_ = std::make_unique<vqi::net::QueryServing>(router_.get(), serving);
  }
  vqi::net::HttpServerOptions server;
  server.num_threads = kHttpThreads;
  server.metrics = registry;
  vqi::net::QueryServing* handler = serving_.get();
  server_ = std::make_unique<vqi::net::HttpServer>(
      [handler](const vqi::net::HttpRequest& r) { return handler->Handle(r); },
      server);
  serving_->set_server(server_.get());
}

Fleet::~Fleet() {
  if (server_ != nullptr) server_->Shutdown();
  if (router_ != nullptr) router_->Shutdown();
  if (service_ != nullptr) service_->Shutdown();
}

vqi::QueryResult Fleet::Execute(vqi::QueryRequest request) {
  return router_ != nullptr ? router_->Execute(std::move(request))
                            : service_->Execute(std::move(request));
}

void Fleet::InvalidateCache() {
  if (router_ != nullptr) {
    router_->InvalidateCache();
  } else {
    service_->InvalidateCache();
  }
}

std::vector<vqi::QueryService*> Fleet::Services() {
  if (router_ == nullptr) return {service_.get()};
  std::vector<vqi::QueryService*> all;
  for (size_t s = 0; s < router_->num_shards(); ++s) {
    for (size_t r = 0; r < router_->num_replicas(); ++r) {
      all.push_back(&router_->shard(s, r));
    }
  }
  return all;
}

vqi::ServiceStats Fleet::Stats() {
  return router_ != nullptr ? router_->AggregateSnapshot()
                            : service_->Snapshot();
}

bool Fleet::WarmUp() {
  if (!server_->Start().ok()) return false;
  vqi::QueryRequest warm;
  warm.pattern.AddVertex(0);  // one vertex: no measured pattern is this small
  warm.max_embeddings = 1;
  for (vqi::QueryService* service : Services()) {
    if (!service->Execute(warm).status.ok()) return false;
  }
  double ms = 0;
  return !Get(port(), "/healthz", &ms).empty();
}

// --- Online phase -----------------------------------------------------------------

void RunOnline(const Spec& spec, const Args& args, Data& data, Fleet& fleet,
               Owner* owner, Report* report) {
  const size_t open = static_cast<size_t>(
      std::llround(kRate * kOpenShare * args.seconds));
  // The closed loop sends closed_rounds more chunks of `open` requests,
  // continuing the same stream: Zipf traffic keeps drawing from its pools
  // (mostly cache hits by now), unique traffic keeps sending new patterns.
  const size_t total = open * (1 + spec.closed_rounds);
  // Lookups name every fourth graph of the collection as it stands now,
  // which does not depend on --seed; live batches leave these graphs alone.
  std::vector<GraphId> ids = data.db.Ids();
  std::vector<GraphId> targets;
  for (size_t i = 0; i < ids.size(); i += 4) targets.push_back(ids[i]);
  owner->pinned.insert(targets.begin(), targets.end());
  Stream stream = MakeStream(spec, data, args.seed, total, targets);

  // The oracle recounts a seeded sample of match responses of each kind in
  // every chunk of the stream.
  std::set<size_t> sampled;
  {
    vqi::Rng rng(args.seed ^ 0x0AC1Eull);
    for (size_t begin = 0; begin < total; begin += open) {
      size_t taken[2] = {0, 0};
      std::vector<size_t> positions(open);
      for (size_t j = 0; j < open; ++j) positions[j] = begin + j;
      rng.Shuffle(positions);
      for (size_t j : positions) {
        Kind k = stream.items[stream.order[j]].kind;
        if (k != kSuggest && taken[k] < spec.oracle_sample) {
          ++taken[k];
          sampled.insert(j);
        }
      }
    }
  }
  // The router serves copies made at construction and the single service's
  // suggestion index is built then too; both reflect the collection as set
  // up, which is what construction_triples records.
  std::vector<TripleCounts> shard_triples;
  if (fleet.router() != nullptr) {
    shard_triples.resize(fleet.router()->num_shards());
    for (const Graph& g : data.db.graphs()) {
      AddTriples(g, &shard_triples[fleet.router()->shard_map().OwnerOf(g.id())]);
    }
  }
  Checker checker(stream, data.db, owner->construction_triples, shard_triples,
                  sampled);

  Scrape before;
  vqi::ServiceStats stats_before = fleet.Stats();
  vqi::shard::RouterStats router_before;
  if (fleet.router() != nullptr) router_before = fleet.router()->Snapshot();
  if (args.trace) before = ParseScrape(Get(fleet.port(), "/metrics", nullptr));
  ExecuteStages execute(fleet);

  if (spec.warm) {
    // Collection and network serve from a warm cache: every pool item is
    // sent once first, so no measured request waits behind a cache miss
    // (on 1,000 molecules a miss runs for milliseconds, and how many
    // requests queue behind the misses depends on the seed's patterns).
    // serve_zipf warms, and re-warms after its live batches, while measured.
    Stream pools;
    pools.items = stream.items;
    for (size_t i = 0; i < pools.items.size(); ++i) pools.order.push_back(i);
    std::vector<Sample> warm(pools.order.size());
    Drive(fleet.port(), pools, 0, pools.order.size(), 0, &warm);
    // The warm-up's misses are these workloads' matcher executions.
    if (args.trace) execute.Collect();
  }

  std::vector<Sample> samples(total);
  double cpu_s = 0;
  // The open loop runs in kOpenSegments segments with the reference kernel
  // sampled between them; each segment's latencies are scaled by the kernel
  // times around it. Live batches land at evenly spaced segment boundaries.
  // At each boundary the generator waits for in-flight responses (the
  // collection must not change under a running query), the segment is
  // checked, any batch applied, and the schedule restarts, so the pause
  // counts in no request's latency.
  const size_t segments = std::max(kOpenSegments, spec.live_batches + 1);
  std::vector<double> latency[3], raw_latency[3], late;
  size_t batches_done = 0;
  double kernel_ms = report->speed.Sample();
  for (size_t s = 0; s < segments; ++s) {
    size_t begin = open * s / segments;
    size_t end = open * (s + 1) / segments;
    double cpu = CpuSeconds();
    Drive(fleet.port(), stream, begin, end, kRate, &samples);
    cpu_s += CpuSeconds() - cpu;
    double after_ms = report->speed.Sample();
    for (size_t j = begin; j < end; ++j) {
      Kind kind = stream.items[stream.order[j]].kind;
      latency[kind].push_back(
          Speed::Scale(samples[j].latency_ms, kernel_ms, after_ms));
      raw_latency[kind].push_back(samples[j].latency_ms);
      late.push_back(samples[j].late_ms);
    }
    if (args.trace) execute.Collect();
    checker.Check(samples, begin, end, report);
    for (size_t j = begin; j < end; ++j) std::string().swap(samples[j].body);
    if (batches_done < spec.live_batches &&
        (s + 1) * (spec.live_batches + 1) >= segments * (batches_done + 1)) {
      CollectionBatch(false, owner, report);
      checker.CollectionChanged();
      ++batches_done;
    }
    kernel_ms = report->speed.Sample();
  }
  // Closed loop, chunk by chunk; checking between chunks stays out of the
  // timed total. It measures capacity, so the fleet may use every CPU.
  UseOneCpu(false);
  double closed_s = 0;
  for (size_t begin = open; begin < total; begin += open) {
    double cpu = CpuSeconds();
    Stopwatch watch;
    Drive(fleet.port(), stream, begin, begin + open, 0, &samples);
    closed_s += watch.ElapsedSeconds();
    cpu_s += CpuSeconds() - cpu;
    if (args.trace) execute.Collect();
    checker.Check(samples, begin, begin + open, report);
    for (size_t j = begin; j < begin + open; ++j) {
      std::string().swap(samples[j].body);
    }
  }
  UseOneCpu(true);
  owner->online_cpu_s = cpu_s;

  // Every suggestion answered after the served collection first changed
  // comes from the stale index; with live batches the offline stream
  // already changed it, so that is every suggestion sent. Through the
  // router, the suggestions whose merged answer differs from the whole
  // collection's fail.
  size_t stale_expected = 0, merged_expected = 0;
  for (size_t j = 0; j < total; ++j) {
    const Item& item = stream.items[stream.order[j]];
    if (item.kind != kSuggest) continue;
    if (spec.live_batches > 0) ++stale_expected;
    if (!shard_triples.empty()) {
      vqi::Label from = item.pattern.VertexLabel(item.focus);
      merged_expected +=
          RouterMerged(shard_triples, from, item.top_k) !=
          TopSuggestions(owner->construction_triples, from, item.top_k);
    }
  }
  std::fprintf(stderr, "suggestions sent after the first batch: %zu "
               "(failed as stale: %zu)\n", stale_expected, checker.stale());
  std::fprintf(stderr, "suggestions the router merge gets wrong: %zu "
               "(failed as merged: %zu)\n", merged_expected, checker.merged());

  report->E2E("query_p50_ms", Quantile(latency[kWhole], 0.5), "ms");
  report->E2E("lookup_p50_ms", Quantile(latency[kLookup], 0.5), "ms");
  report->E2E("suggest_p50_ms", Quantile(latency[kSuggest], 0.5), "ms");
  report->raw["query_p50_ms"] = Quantile(raw_latency[kWhole], 0.5);
  report->raw["lookup_p50_ms"] = Quantile(raw_latency[kLookup], 0.5);
  report->raw["suggest_p50_ms"] = Quantile(raw_latency[kSuggest], 0.5);
  // Tails are per-layer numbers: on a shared machine they spread too far
  // between runs to hold to a bound.
  report->Layer("online.query_p90_ms", Quantile(raw_latency[kWhole], 0.90),
                "ms");
  report->Layer("online.query_p99_ms", Quantile(raw_latency[kWhole], 0.99),
                "ms");
  // Closed-loop throughput runs mostly on the cache-hit path, whose speed
  // follows the machine's: a per-layer number, not bounded.
  report->Layer("online.capacity_qps", (total - open) / closed_s, "req/s");
  report->Layer("load.late_p99_ms", Quantile(late, 0.99), "ms");

  if (!args.trace) return;
  Scrape after = ParseScrape(Get(fleet.port(), "/metrics", nullptr));
  std::vector<double> scrape_ms;
  for (int i = 0; i < 5; ++i) {
    double ms = 0;
    Get(fleet.port(), "/metrics", &ms);
    scrape_ms.push_back(ms);
  }
  report->Layer("net.scrape_ms", Median(scrape_ms), "ms");
  report->Layer("service.queue_wait_p50_ms",
                HistogramQuantile(before.queue_wait, after.queue_wait, 0.5),
                "ms");
  report->Layer("service.queue_wait_p99_ms",
                HistogramQuantile(before.queue_wait, after.queue_wait, 0.99),
                "ms");
  report->Layer("match.steps", after.match_steps - before.match_steps,
                "count");
  vqi::ServiceStats stats = fleet.Stats();
  double hits = stats.cache_hits - stats_before.cache_hits;
  double misses = stats.cache_misses - stats_before.cache_misses;
  report->Layer("service.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0, "fraction");
  report->Layer("service.backend_executions",
                stats.backend_executions - stats_before.backend_executions,
                "count");
  report->Layer("service.coalesced",
                stats.coalesce_waiters - stats_before.coalesce_waiters,
                "count");
  report->Layer("service.index_builds", stats.index_builds, "count");
  report->Layer("service.execute_p50_ms", Median(execute.match_ms()), "ms");
  double legs = 0, retries = 0, requests = 0;
  if (fleet.router() != nullptr) {
    vqi::shard::RouterStats rs = fleet.router()->Snapshot();
    for (size_t s = 0; s < rs.replica_picks.size(); ++s) {
      for (size_t r = 0; r < rs.replica_picks[s].size(); ++r) {
        legs += rs.replica_picks[s][r] - router_before.replica_picks[s][r];
      }
    }
    requests = rs.requests - router_before.requests;
    retries = rs.hedges_fired + rs.failovers;
  }
  report->Layer("shard.legs", requests > 0 ? legs / requests : 0, "count/req");
  report->Layer("shard.retries", retries, "count");
  Replay(spec, stream, data, fleet, args.seed, report);
}

}  // namespace vqibench
