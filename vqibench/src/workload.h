// The two user paths of a VQI, as the benchmark drives them: the offline
// path (build and maintain a VQI) and the online path (serve queries over
// HTTP). Each workload runs both on its own data and traffic.
#ifndef VQIBENCH_WORKLOAD_H_
#define VQIBENCH_WORKLOAD_H_

#include <memory>
#include <set>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_database.h"
#include "net/http_server.h"
#include "net/serving.h"
#include "service/query_service.h"
#include "shard/sharded_router.h"
#include "tattoo/network_maintenance.h"
#include "vqi/builder.h"
#include "vqi/maintainer.h"

namespace vqibench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool fast = false;
};

/// Seed of the offline inputs: the collection or network, CATAPULT's and
/// TATTOO's random choices and the batch stream. --seed drives the request
/// stream, the lookup targets and the oracle sample. Fixed offline inputs
/// do two things. The program keeps canned patterns that occur in no data
/// graph on some inputs (a known fault, counted as failed operations); on
/// fixed inputs every run fails the same checks, so the failed share does
/// not depend on --seed. And the work of a build or a batch depends on the
/// particular data (on the network, build time spread 0.27 between
/// quartiles over five seeded networks), which no bound could hold.
constexpr uint64_t kOfflineSeed = 1;

/// Generated inputs. A network workload serves its network as a
/// one-graph collection.
struct Data {
  vqi::GraphDatabase db;
  vqi::Graph network;
};
Data MakeData(const Spec& spec);

/// The serving fleet behind one HTTP server: one QueryService, or a
/// ShardedRouter over shards x replicas of them.
class Fleet {
 public:
  Fleet(const Spec& spec, const vqi::GraphDatabase& db);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  uint16_t port() const { return server_->port(); }
  vqi::QueryResult Execute(vqi::QueryRequest request);
  void InvalidateCache();
  /// Every QueryService of the fleet (one, or one per replica).
  std::vector<vqi::QueryService*> Services();
  vqi::ServiceStats Stats();
  vqi::shard::ShardedRouter* router() { return router_.get(); }
  vqi::net::QueryServing& serving() { return *serving_; }
  /// Builds every served graph's match index on every replica, with a
  /// pattern the measured stream never sends.
  bool WarmUp();

 private:
  std::unique_ptr<vqi::QueryService> service_;
  std::unique_ptr<vqi::shard::ShardedRouter> router_;
  std::unique_ptr<vqi::net::QueryServing> serving_;
  std::unique_ptr<vqi::net::HttpServer> server_;
};

/// The data owner's side: the VQI, its maintainer and the batch stream.
/// Collection workloads maintain `db` (the served collection itself when
/// batches land during serving, else a private copy); network workloads
/// maintain `net_state`.
struct Owner {
  vqi::GraphDatabase* db = nullptr;
  std::unique_ptr<vqi::GraphDatabase> private_db;
  vqi::VqiBuildResult built;
  std::unique_ptr<vqi::VqiMaintainer> maintainer;
  vqi::NetworkMaintainState net_state;
  vqi::Rng rng{1};
  /// Timings at the reference speed, and as measured (the raw_ ones).
  std::vector<double> build_s, minor_ms, major_s;
  std::vector<double> build_raw_s, minor_raw_ms, major_raw_s, panel_s;
  uint64_t minors = 0, majors = 0, swaps = 0, candidates = 0,
           clusters_touched = 0, region_vertices = 0;
  double coverage = 0;
  /// Realisation checks failed: patterns found in no data graph.
  size_t unrealised = 0;
  /// Random graphs the last drifting major batch added.
  std::vector<vqi::GraphId> drifted;
  /// Graphs the batches never delete: the lookup targets, chosen without
  /// --seed so that live batches change the same graphs in every run.
  std::set<vqi::GraphId> pinned;
  /// Label triples of the served collection when the fleet was built: what
  /// a suggestion index built then (and never rebuilt) answers from.
  TripleCounts construction_triples;
  double online_cpu_s = 0;
};

/// Builds the VQI and runs the offline batch stream, checking every
/// property after each step.
void RunOffline(const Spec& spec, Data& data, Fleet& fleet, Owner* owner,
                Report* report);
/// One collection maintenance batch (minor or major), timed and checked.
void CollectionBatch(bool major, Owner* owner, Report* report);
/// Per-layer numbers of the offline path (traced runs).
void TraceOffline(const Spec& spec, const Owner& owner, Report* report);

/// Serves the request stream over HTTP (open loop, then closed loop),
/// with serve_zipf's live batches, and checks responses.
void RunOnline(const Spec& spec, const Args& args, Data& data, Fleet& fleet,
               Owner* owner, Report* report);

}  // namespace vqibench

#endif  // VQIBENCH_WORKLOAD_H_
