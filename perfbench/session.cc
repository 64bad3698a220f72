// RelGraph benchmark session: one run of one workload.
//
// A run plays one user session against the public entry points of the
// system, in three phases:
//
//   query   an analyst runs the predictive query on a fresh
//           PredictiveQueryEngine, repeatedly (PredictiveQueryEngine::
//           Execute; graph build included), in parts spread over the
//           session;
//   serve   online callers send requests of entity ids on an open-loop
//           schedule to a CoalescingScheduler in front of an
//           InferenceEngine (default ServeOptions, fp32): a warm-up, a
//           bisection over the rate ladder for the highest sustainable
//           rate (--trace 1 only), then the nominal rate for the latency
//           figures;
//   stream  order appends arrive on a fixed cadence through
//           StreamingDbGraph::Apply and InferenceEngine::ApplyDelta while
//           reads continue at the nominal rate (with
//           appends_during_serve, as in query and serve_stream, they run
//           alongside every serve segment instead).
//
// The workload (world sizes, id distribution, rates, cadence, time
// shares) comes from the command line, which perfbench/run.py fills from
// perfbench/workloads.json. The worlds come from a fixed world seed;
// requests, appends and the training seed come from --seed.
//
// Correctness gates, checked after the timed phases: every OK response is
// bit-identical to a caches-off reference engine on the same snapshot
// (replayed version by version), the final streamed epoch equals a
// from-scratch BuildDbGraph(db, RebuildOptions()), every append is
// accepted clean, and the query's test AUC is above its floor and
// identical across repetitions.
//
// --trace 1 runs the phases twice at half length, the second time with
// the program's metrics switched on and bench-side trace spans, then
// replays the stages of the query and of a cold serving request through
// the layers' own public functions to time each one. It reports the
// per-layer metrics and the tracing overhead (traced minus untraced
// median of each end-to-end metric). The serving replay runs a
// random-initialised model of the same GnnConfig (same shapes, same
// FLOPs) because the engine's trained model is private.
//
// Output: one JSON document written to --out (metrics, gate counts,
// self-check figures, host and build stamp); progress goes to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer_pool.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/timer.h"
#include "core/trace.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "db2graph/streaming.h"
#include "gnn/heads.h"
#include "gnn/hetero_sage.h"
#include "open_loop.h"
#include "pq/engine.h"
#include "pq/label_builder.h"
#include "pq/parser.h"
#include "sampler/neighbor_sampler.h"
#include "serve/coalescing_scheduler.h"
#include "stats.h"
#include "tensor/autograd.h"
#include "tensor/simd_kernels.h"
#include "train/trainer.h"

using namespace relgraph;
using perfbench::Median;
using perfbench::OpTiming;
using perfbench::Percentile;
using perfbench::ReportedPercentile;
using perfbench::WindowedP99;

namespace {

// ---- command line ---------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Fail("expected --key value pairs");
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0) Fail("dangling argument");
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Fail("missing --" + key);
    return it->second;
  }
  double Num(const std::string& key) const {
    const std::string s = Str(key);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
      Fail("--" + key + " is not a number: " + s);
    }
    return v;
  }
  int64_t Int(const std::string& key) const {
    const double v = Num(key);
    if (v != std::floor(v)) Fail("--" + key + " is not an integer");
    return static_cast<int64_t>(v);
  }
  std::vector<double> NumList(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(Str(key));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    if (out.empty()) Fail("--" + key + " is empty");
    return out;
  }
  [[noreturn]] static void Fail(const std::string& msg) {
    std::fprintf(stderr, "perfbench_session: %s\n", msg.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// A pass runs its query repetitions in this many parts, spread over it.
constexpr int64_t kQueryParts = 3;

/// Workload constants (see perfbench/workloads.json for their meaning).
struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
  std::string scratch;

  uint64_t world_seed = 0;
  std::string query;  // with the run's seed in its WITH clause
  int64_t query_users = 0, query_products = 0;
  double query_share = 0;
  int64_t query_min_reps = 0;
  double auc_floor = 0;

  int64_t serve_users = 0, serve_products = 0;
  bool zipf = false;
  double zipf_alpha = 0;
  int64_t request_rows = 0;
  int readers = 0;
  std::vector<double> ladder;
  double nominal_rps = 0;
  double coalesce_wait_window_ms = 0;
  double p99_limit_ms = 0;
  double warm_share = 0, rung_share = 0, nominal_share = 0, fresh_share = 0;

  double append_every_ms = 0;
  int64_t append_rows = 0;
  bool appends_during_serve = false;

  int64_t setup_reps = 0;
  int64_t train_rows = 0, train_epochs = 0;
  int64_t replay_serve_rows = 0;
};

Config ParseConfig(const Args& a) {
  Config c;
  c.workload = a.Str("workload");
  c.seed = static_cast<uint64_t>(a.Int("seed"));
  c.seconds = a.Num("seconds");
  c.trace = a.Int("trace") != 0;
  c.out = a.Str("out");
  c.scratch = a.Str("scratch");
  c.world_seed = static_cast<uint64_t>(a.Int("world_seed"));
  // The run's seed drives the query's training (WITH seed=...).
  c.query = a.Str("query");
  const size_t slot = c.query.find("{seed}");
  if (slot == std::string::npos) Args::Fail("--query needs a {seed} slot");
  c.query.replace(slot, 6, std::to_string(c.seed));
  c.query_users = a.Int("query_users");
  c.query_products = a.Int("query_products");
  c.query_share = a.Num("query_share");
  c.query_min_reps = a.Int("query_min_reps");
  c.auc_floor = a.Num("auc_floor");
  c.serve_users = a.Int("serve_users");
  c.serve_products = a.Int("serve_products");
  const std::string ids = a.Str("ids");
  if (ids != "uniform" && ids != "zipf") Args::Fail("--ids uniform|zipf");
  c.zipf = ids == "zipf";
  c.zipf_alpha = a.Num("zipf_alpha");
  c.request_rows = a.Int("request_rows");
  c.readers = static_cast<int>(a.Int("readers"));
  c.ladder = a.NumList("rate_ladder");
  c.nominal_rps = a.Num("nominal_rps");
  c.coalesce_wait_window_ms = a.Num("coalesce_wait_window_ms");
  c.p99_limit_ms = a.Num("p99_limit_ms");
  c.warm_share = a.Num("warm_share");
  c.rung_share = a.Num("rung_share");
  c.nominal_share = a.Num("nominal_share");
  c.fresh_share = a.Num("fresh_share");
  c.append_every_ms = a.Num("append_every_ms");
  c.append_rows = a.Int("append_rows");
  c.appends_during_serve = a.Int("appends_during_serve") != 0;
  c.setup_reps = a.Int("setup_reps");
  c.train_rows = a.Int("train_rows");
  c.train_epochs = a.Int("train_epochs");
  c.replay_serve_rows = a.Int("replay_serve_rows");
  if (c.seconds <= 0 || c.readers < 1 || c.request_rows < 1 ||
      c.setup_reps < 1 || c.query_min_reps < kQueryParts || c.append_rows < 1 ||
      c.append_every_ms <= 0 || c.nominal_rps <= 0 ||
      !std::is_sorted(c.ladder.begin(), c.ladder.end())) {
    Args::Fail("workload constants out of range");
  }
  return c;
}

// ---- helpers ----------------------------------------------------------------

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

/// (steal, total) jiffies of all CPUs from /proc/stat: the share of time
/// the hypervisor ran someone else on this host's virtual CPUs.
std::pair<int64_t, int64_t> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    int64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Ordered name -> (value, unit) list, emitted as a JSON object.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
  double Get(const std::string& name) const {
    for (const auto& it : items) {
      if (it.first == name) return it.second.first;
    }
    return NAN;
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + items[i].first + "\": {\"value\": " +
             Num(items[i].second.first) + ", \"unit\": \"" +
             items[i].second.second + "\"}";
    }
    return out + "}";
  }
};

double HitRate(int64_t hits, int64_t misses) {
  const int64_t total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
}

/// Content equality of two graphs of the same layout: node counts,
/// features, node times, and every node's full neighbor list (with edge
/// times) across segments. Prints the first divergence.
bool GraphsEqual(const HeteroGraph& got, const HeteroGraph& want) {
  if (got.num_node_types() != want.num_node_types() ||
      got.num_edge_types() != want.num_edge_types()) {
    std::fprintf(stderr, "graph gate: type counts differ\n");
    return false;
  }
  for (NodeTypeId t = 0; t < got.num_node_types(); ++t) {
    const std::string& name = got.node_type_name(t);
    if (got.num_nodes(t) != want.num_nodes(t)) {
      std::fprintf(stderr, "graph gate: node count differs on %s\n",
                   name.c_str());
      return false;
    }
    const Tensor& gf = got.node_features(t);
    const Tensor& wf = want.node_features(t);
    if (gf.rows() != wf.rows() || gf.cols() != wf.cols() ||
        std::memcmp(gf.data(), wf.data(),
                    sizeof(float) * static_cast<size_t>(gf.rows() *
                                                        gf.cols())) != 0) {
      std::fprintf(stderr, "graph gate: features differ on %s\n",
                   name.c_str());
      return false;
    }
    for (int64_t n = 0; n < got.num_nodes(t); ++n) {
      if (got.node_time(t, n) != want.node_time(t, n)) {
        std::fprintf(stderr, "graph gate: node time differs on %s\n",
                     name.c_str());
        return false;
      }
    }
  }
  auto neighbors = [](const HeteroGraph& g, EdgeTypeId e, int64_t node,
                      std::vector<std::pair<int64_t, Timestamp>>* out) {
    out->clear();
    for (int32_t s = 0; s < g.num_segments(e); ++s) {
      const int64_t* dst = nullptr;
      const Timestamp* times = nullptr;
      int64_t count = 0;
      g.SegmentNeighbors(e, s, node, &dst, &times, &count);
      for (int64_t i = 0; i < count; ++i) out->emplace_back(dst[i], times[i]);
    }
  };
  std::vector<std::pair<int64_t, Timestamp>> a, b;
  for (EdgeTypeId e = 0; e < got.num_edge_types(); ++e) {
    if (got.num_edges(e) != want.num_edges(e)) {
      std::fprintf(stderr, "graph gate: edge count differs on %s\n",
                   got.edge_type_name(e).c_str());
      return false;
    }
    const int64_t num_src = got.num_nodes(got.edge_src_type(e));
    for (int64_t node = 0; node < num_src; ++node) {
      neighbors(got, e, node, &a);
      neighbors(want, e, node, &b);
      if (a != b) {
        std::fprintf(stderr, "graph gate: neighbors differ on %s node %lld\n",
                     got.edge_type_name(e).c_str(),
                     static_cast<long long>(node));
        return false;
      }
    }
  }
  return true;
}

// ---- the system under test ---------------------------------------------------

ECommerceConfig WorldConfig(int64_t users, int64_t products, uint64_t seed) {
  ECommerceConfig cfg;
  cfg.num_users = users;
  cfg.num_products = products;
  cfg.num_categories = 16;
  cfg.seed = seed;
  return cfg;
}

/// Serving world + streaming graph + trained engine behind a scheduler.
struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<StreamingDbGraph> stream;
  ServePlan plan;  // graph pointer unused: it belongs to a dropped engine
  NodeTypeId users = 0;
  std::string ckpt;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<CoalescingScheduler> scheduler;
  Timestamp append_start = 0;  // first appended event time
  int64_t base_version = 0;
};

ServeOptions ReferenceOptions(const ServePlan& plan) {
  ServeOptions opts;
  opts.seed = plan.seed;
  opts.enable_subgraph_cache = false;
  opts.enable_embedding_cache = false;
  return opts;
}

/// Builds a fresh serving world from the seed and returns the stream and
/// the compiled plan (no model).
Status BuildWorld(const Config& cfg, Stack* s) {
  s->db = std::make_unique<Database>(MakeECommerceDb(WorldConfig(
      cfg.serve_users, cfg.serve_products, Mix(cfg.world_seed, 2))));
  {
    // The plan carries the query's model and sampler configuration, so
    // the served model is configured exactly like the analyst's query.
    PredictiveQueryEngine pqe(s->db.get());
    RELGRAPH_ASSIGN_OR_RETURN(s->plan, pqe.CompileForServing(cfg.query));
    s->plan.graph = nullptr;
  }
  RELGRAPH_ASSIGN_OR_RETURN(s->stream, StreamingDbGraph::Create(s->db.get()));
  s->users = s->stream->table_type().at(s->plan.entity_table);
  s->append_start = s->db->TimeRange().second + 1;
  return Status::OK();
}

/// One complete set-up of the serving stack: world, streaming graph,
/// weights trained for the query on the serving world, engine and
/// scheduler.
Status BuildStack(const Config& cfg, Stack* s) {
  RELGRAPH_RETURN_IF_ERROR(BuildWorld(cfg, s));
  RELGRAPH_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(cfg.query));
  RELGRAPH_ASSIGN_OR_RETURN(ResolvedQuery rq, AnalyzeQuery(parsed, *s->db));
  RELGRAPH_ASSIGN_OR_RETURN(std::vector<Timestamp> cutoffs,
                            MakeCutoffs(rq, *s->db));
  RELGRAPH_ASSIGN_OR_RETURN(TrainingTable table,
                            BuildTrainingTable(rq, *s->db, cutoffs));
  RELGRAPH_ASSIGN_OR_RETURN(Split split, MakeSplit(rq, table, cutoffs));
  split.train.resize(std::min<size_t>(split.train.size(),
                                      static_cast<size_t>(cfg.train_rows)));
  split.val.resize(std::min<size_t>(split.val.size(),
                                    static_cast<size_t>(cfg.train_rows / 4)));
  TrainerConfig tc;
  tc.epochs = cfg.train_epochs;
  tc.patience = 0;
  tc.seed = s->plan.seed;
  std::shared_ptr<const HeteroGraph> base = s->stream->graph();
  GnnNodePredictor trainer(base.get(), s->users, s->plan.kind,
                           s->plan.num_classes, s->plan.gnn, s->plan.sampler,
                           tc);
  RELGRAPH_RETURN_IF_ERROR(trainer.Fit(table, split));
  s->ckpt = cfg.scratch + "/serve_" + cfg.workload + ".weights";
  RELGRAPH_RETURN_IF_ERROR(trainer.SaveWeights(s->ckpt));
  ServeOptions serve;
  serve.seed = s->plan.seed;
  s->engine = std::make_unique<InferenceEngine>(
      base, s->users, s->plan.kind, s->plan.num_classes, s->plan.gnn,
      s->plan.sampler, s->plan.now_cutoff, serve);
  RELGRAPH_RETURN_IF_ERROR(s->engine->LoadCheckpoint(s->ckpt));
  CoalesceOptions coalesce;
  coalesce.wait_window_ms = cfg.coalesce_wait_window_ms;
  s->scheduler =
      std::make_unique<CoalescingScheduler>(s->engine.get(), coalesce);
  s->base_version = s->engine->snapshot_version();
  return Status::OK();
}

std::unique_ptr<InferenceEngine> MakeReferenceEngine(
    const Stack& s, std::shared_ptr<const HeteroGraph> graph) {
  auto ref = std::make_unique<InferenceEngine>(
      std::move(graph), s.users, s.plan.kind, s.plan.num_classes, s.plan.gnn,
      s.plan.sampler, s.plan.now_cutoff, ReferenceOptions(s.plan));
  if (!ref->LoadCheckpoint(s.ckpt).ok()) return nullptr;
  return ref;
}

// ---- inputs -------------------------------------------------------------------

/// Request and append generator: a pure function of the seed and the
/// operation's (segment tag, index).
class Inputs {
 public:
  explicit Inputs(const Config& cfg) : cfg_(cfg) {
    // Zipf rank -> user: a seeded permutation so the hot set is spread
    // over the id space instead of being the first-generated users.
    rank_to_user_.resize(static_cast<size_t>(cfg.serve_users));
    for (int64_t i = 0; i < cfg.serve_users; ++i) rank_to_user_[i] = i;
    Rng rng(Mix(cfg.seed, 3));
    for (int64_t i = cfg.serve_users - 1; i > 0; --i) {
      const int64_t j = static_cast<int64_t>(
          rng.UniformU64(static_cast<uint64_t>(i + 1)));
      std::swap(rank_to_user_[i], rank_to_user_[j]);
    }
  }

  std::vector<int64_t> RequestIds(uint64_t tag, int64_t i) const {
    Rng rng(Mix(Mix(cfg_.seed, tag), static_cast<uint64_t>(i)));
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(cfg_.request_rows));
    for (int64_t k = 0; k < cfg_.request_rows; ++k) {
      if (cfg_.zipf) {
        ids.push_back(rank_to_user_[static_cast<size_t>(rng.PowerLawIndex(
            static_cast<int>(cfg_.serve_users), cfg_.zipf_alpha))]);
      } else {
        ids.push_back(static_cast<int64_t>(
            rng.UniformU64(static_cast<uint64_t>(cfg_.serve_users))));
      }
    }
    return ids;
  }

  /// Append batch `g` (0-based over the run): fresh order PKs, FKs into
  /// the generated users/products (1-based PKs), event times one second
  /// apart past the world's horizon.
  AppendBatch Batch(int64_t g, Timestamp start) const {
    Rng rng(Mix(Mix(cfg_.seed, 4), static_cast<uint64_t>(g)));
    AppendBatch batch;
    for (int64_t k = 0; k < cfg_.append_rows; ++k) {
      const int64_t n = g * cfg_.append_rows + k;
      const int64_t user = static_cast<int64_t>(
          rng.UniformU64(static_cast<uint64_t>(cfg_.serve_users)));
      const int64_t product = static_cast<int64_t>(
          rng.UniformU64(static_cast<uint64_t>(cfg_.serve_products)));
      const int64_t qty = 1 + static_cast<int64_t>(rng.UniformU64(3));
      const double price = 5.0 + static_cast<double>(rng.UniformU64(90));
      batch.Add("orders", {Value(int64_t{100000000} + n), Value(user + 1),
                           Value(product + 1), Value::Time(start + n),
                           Value(qty), Value(price),
                           Value(price * static_cast<double>(qty))});
    }
    return batch;
  }

 private:
  const Config& cfg_;
  std::vector<int64_t> rank_to_user_;
};

// ---- timed phases ---------------------------------------------------------------

/// What the gates need of one response: its snapshot version and a digest
/// of its scores' bit patterns (the scores themselves would make the
/// benchmark's own memory show in peak_rss_mb at high rates).
struct ReadRecord {
  int64_t version = -1;
  uint64_t digest = 0;
};

uint64_t ScoresDigest(const std::vector<double>& scores) {
  uint64_t h = scores.size();
  for (double v : scores) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = Mix(h, bits);
  }
  return h;
}

/// One open-loop serving segment, optionally with appends alongside.
struct Segment {
  uint64_t tag = 0;
  bool appends = false;
  bool ladder = false;  // a max-rate probe, possibly overloaded
  std::vector<OpTiming> reads;
  std::vector<ReadRecord> records;
  std::vector<OpTiming> writes;
  std::vector<double> apply_ms, delta_ms;
  std::vector<double> delta_miss_rows;
  int64_t compactions = 0;
  ServeStats s0, s1;
  CoalesceStats c0, c1;
  FloatBufferPool::Stats a0, a1;
  int64_t flops0 = 0, flops1 = 0;
};

struct QueryRep {
  double wall_s = 0;
  double auc = 0;
  bool ok = false;
  int64_t rows = 0;
  int64_t flops = 0;  // traced pass only
};

/// Everything one pass measured.
struct Pass {
  std::vector<QueryRep> queries;
  std::vector<perfbench::RungVerdict> probes;
  double max_rps = 0;
  Segment* nominal = nullptr;      // latency figures
  std::vector<Segment*> segments;  // all of the pass, in run order
};

/// The pass's appends at the nominal read rate, pooled over its segments:
/// freshness and stream figures need more batches than one segment holds.
/// Appends during ladder probes are left out; an overloaded probe starves
/// the writer.
struct Writes {
  std::vector<OpTiming> timings;
  std::vector<double> apply_ms, delta_ms, delta_miss_rows;
  int64_t compactions = 0;
};

Writes PooledWrites(const Pass& pass) {
  Writes w;
  for (const Segment* seg : pass.segments) {
    if (seg->ladder) continue;
    w.timings.insert(w.timings.end(), seg->writes.begin(), seg->writes.end());
    w.apply_ms.insert(w.apply_ms.end(), seg->apply_ms.begin(),
                      seg->apply_ms.end());
    w.delta_ms.insert(w.delta_ms.end(), seg->delta_ms.begin(),
                      seg->delta_ms.end());
    w.delta_miss_rows.insert(w.delta_miss_rows.end(),
                             seg->delta_miss_rows.begin(),
                             seg->delta_miss_rows.end());
    w.compactions += seg->compactions;
  }
  return w;
}

class Runner {
 public:
  Runner(const Config& cfg, Stack* stack, const Database* query_db)
      : cfg_(cfg), stack_(stack), query_db_(query_db), inputs_(cfg) {}

  Pass RunPass(double scale, uint64_t pass_tag, bool ladder);

  /// An untimed burst of `n` reads, e.g. after the last delta.
  void Burst(uint64_t tag, int64_t n) {
    RunSegment(tag, 10000.0, static_cast<double>(n) / 10000.0, false);
  }

  const std::vector<std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }
  const Inputs& inputs() const { return inputs_; }
  int64_t batches_applied() const { return next_batch_; }
  int64_t append_rejects() const { return append_rejects_; }

 private:
  Segment* RunSegment(uint64_t tag, double rate, double seconds, bool appends);
  bool ReadOp(Segment* seg, int64_t i);
  bool WriteOp(Segment* seg);
  QueryRep RunQuery();

  const Config& cfg_;
  Stack* stack_;
  const Database* query_db_;
  Inputs inputs_;
  std::vector<std::unique_ptr<Segment>> segments_;
  int64_t next_batch_ = 0;  // writer thread only
  int64_t append_rejects_ = 0;
  int64_t misses_at_last_delta_ = 0;
};

QueryRep Runner::RunQuery() {
  QueryRep rep;
  const int64_t flops0 = CounterValue("gemm_flops_total");
  PredictiveQueryEngine pqe(query_db_);
  TraceSpan span("bench/query");
  const int64_t t0 = perfbench::NowNs();
  Result<QueryResult> r = pqe.Execute(cfg_.query);
  rep.wall_s = Seconds(perfbench::NowNs() - t0);
  rep.flops = CounterValue("gemm_flops_total") - flops0;
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
    return rep;
  }
  rep.ok = true;
  rep.auc = r.value().test_metric;
  rep.rows = r.value().table.size();
  return rep;
}

bool Runner::ReadOp(Segment* seg, int64_t i) {
  ScoreRequest req;
  req.entity_ids = inputs_.RequestIds(seg->tag, i);
  Result<ScoreResponse> r = [&] {
    TraceSpan span("bench/score");
    return stack_->scheduler->Score(req);
  }();
  if (!r.ok()) return false;
  const ScoreResponse& resp = r.value();
  ReadRecord& rec = seg->records[static_cast<size_t>(i)];
  rec.version = resp.snapshot_version;
  rec.digest = ScoresDigest(resp.scores);
  return !resp.degraded && resp.rows_resolved == cfg_.request_rows;
}

bool Runner::WriteOp(Segment* seg) {
  const int64_t g = next_batch_++;
  AppendBatch batch = inputs_.Batch(g, stack_->append_start);
  const int64_t t0 = perfbench::NowNs();
  Result<StreamingApplyResult> applied = [&] {
    TraceSpan span("bench/stream_apply");
    return stack_->stream->Apply(batch);
  }();
  const int64_t t1 = perfbench::NowNs();
  if (!applied.ok() || !applied.value().outcome.clean() ||
      applied.value().outcome.rows_applied != batch.size()) {
    ++append_rejects_;
    std::fprintf(stderr, "append batch %lld not accepted clean\n",
                 static_cast<long long>(g));
    return false;
  }
  const StreamingApplyResult& res = applied.value();
  Status st = [&] {
    TraceSpan span("bench/apply_delta");
    return stack_->engine->ApplyDelta(res.graph, stack_->plan.now_cutoff,
                                      res.delta);
  }();
  const int64_t t2 = perfbench::NowNs();
  if (!st.ok()) {
    ++append_rejects_;
    std::fprintf(stderr, "ApplyDelta failed: %s\n", st.ToString().c_str());
    return false;
  }
  seg->apply_ms.push_back(perfbench::Ms(t1 - t0));
  seg->delta_ms.push_back(perfbench::Ms(t2 - t1));
  seg->compactions += res.compacted_edge_types;
  const int64_t misses = stack_->engine->stats().embedding_misses;
  if (seg->delta_ms.size() > 1) {
    seg->delta_miss_rows.push_back(
        static_cast<double>(misses - misses_at_last_delta_));
  }
  misses_at_last_delta_ = misses;
  return true;
}

Segment* Runner::RunSegment(uint64_t tag, double rate, double seconds,
                            bool appends) {
  auto seg = std::make_unique<Segment>();
  seg->tag = tag;
  seg->appends = appends;
  const int64_t n = std::max<int64_t>(1, std::llround(rate * seconds));
  seg->records.resize(static_cast<size_t>(n));
  seg->s0 = stack_->engine->stats();
  seg->c0 = stack_->scheduler->stats();
  seg->a0 = FloatBufferPool::Global().stats();
  seg->flops0 = CounterValue("gemm_flops_total");
  std::thread writer;
  if (appends) {
    // Appends stop a tenth before the reads do, so the last snapshot
    // version is read too.
    const double append_rate = 1000.0 / cfg_.append_every_ms;
    const int64_t batches = std::max<int64_t>(
        1, std::llround(0.9 * seconds * append_rate));
    misses_at_last_delta_ = stack_->engine->stats().embedding_misses;
    writer = std::thread([this, s = seg.get(), batches, append_rate] {
      s->writes = perfbench::RunOpenLoop(
          batches, append_rate, 1, [&](int64_t) { return WriteOp(s); });
    });
  }
  seg->reads = perfbench::RunOpenLoop(
      n, rate, cfg_.readers,
      [&, s = seg.get()](int64_t i) { return ReadOp(s, i); });
  if (writer.joinable()) writer.join();
  seg->s1 = stack_->engine->stats();
  seg->c1 = stack_->scheduler->stats();
  seg->a1 = FloatBufferPool::Global().stats();
  seg->flops1 = CounterValue("gemm_flops_total");
  segments_.push_back(std::move(seg));
  return segments_.back().get();
}

Pass Runner::RunPass(double scale, uint64_t pass_tag, bool ladder) {
  Pass pass;
  const double total = cfg_.seconds * scale;
  const int64_t pass_start = perfbench::NowNs();

  // Query phase, in kQueryParts parts spread over the pass (its start,
  // before the nominal segment, its end), so that a burst of host
  // contention delays some repetitions rather than all of them. Together
  // at least query_min_reps repetitions, more while the phase's time share
  // lasts.
  const double query_budget = cfg_.query_share * total;
  double spent = 0;
  auto query_part = [&](int64_t part) {
    const double budget = query_budget * part / kQueryParts;
    const int64_t min_reps =
        (cfg_.query_min_reps * part + kQueryParts - 1) / kQueryParts;
    while (static_cast<int64_t>(pass.queries.size()) < min_reps ||
           spent + spent / static_cast<double>(pass.queries.size()) <=
               budget) {
      pass.queries.push_back(RunQuery());
      spent += pass.queries.back().wall_s;
      if (pass.queries.size() >= 200) break;
    }
  };
  query_part(1);

  // Serve phase. Tags: pass in the high bits, segment kind below, ladder
  // rung index last, so every segment's requests are a function of the
  // seed and of what the segment is.
  const bool stream = cfg_.appends_during_serve;
  const uint64_t base = pass_tag << 32;
  pass.segments.push_back(
      RunSegment(base | 1, cfg_.nominal_rps, cfg_.warm_share * total, stream));
  // The rate ladder runs only where its result is reported (--trace 1);
  // untraced runs give its time to the query and nominal segments. A rung
  // fails only when two attempts in a row fail, so one burst of host
  // stalls cannot fail it; sustained overload fails both.
  if (ladder) {
    perfbench::MaxRateResult search = perfbench::SearchMaxRate(
        cfg_.ladder, [&](size_t k) {
          perfbench::RungVerdict v;
          for (uint64_t attempt = 0; attempt < 2 && !v.pass; ++attempt) {
            Segment* seg =
                RunSegment(base | (0x100 + 0x10 * k + attempt), cfg_.ladder[k],
                           cfg_.rung_share * total, stream);
            seg->ladder = true;
            pass.segments.push_back(seg);
            v = perfbench::JudgeRung(cfg_.ladder[k], seg->reads, cfg_.readers,
                                     cfg_.p99_limit_ms);
            std::fprintf(stderr,
                         "  rung %.0f rps: tail %.3f ms, backlog %lld, %s\n",
                         v.rate, v.tail_ms,
                         static_cast<long long>(v.backlog_end),
                         v.pass ? "pass" : "fail");
          }
          return v;
        });
    pass.probes = search.probes;
    pass.max_rps = search.max_rate;
  }
  query_part(2);
  // The nominal segment also takes whatever the query phase and the
  // ladder left of the pass, so a run measures for its full length.
  const double left = total - Seconds(perfbench::NowNs() - pass_start) -
                      cfg_.fresh_share * total - (query_budget - spent);
  pass.nominal =
      RunSegment(base | 2, cfg_.nominal_rps,
                 std::max(cfg_.nominal_share * total, left), stream);
  pass.segments.push_back(pass.nominal);
  if (!stream) {
    pass.segments.push_back(RunSegment(base | 3, cfg_.nominal_rps,
                                       cfg_.fresh_share * total, true));
  }
  query_part(kQueryParts);
  std::fprintf(stderr, "  query: %zu reps, %.2f s\n", pass.queries.size(),
               spent);
  return pass;
}

// ---- gates ------------------------------------------------------------------------

struct GateReport {
  int64_t rows_checked = 0;
  int64_t versions_checked = 0;
  int64_t mismatched_reads = 0;  // responses differing from the reference
  bool reference_ok = true;
  bool graph_equal = true;
  bool auc_identical = true;
  bool auc_above_floor = true;
};

/// Replays the run's appends on a freshly generated copy of the serving
/// world with a caches-off reference engine following every delta, and
/// compares responses at each snapshot version.
void VerifyServing(const Config& cfg, const Runner& runner, const Stack& live,
                   GateReport* report) {
  Stack ref_stack;
  if (!BuildWorld(cfg, &ref_stack).ok()) {
    report->reference_ok = false;
    return;
  }
  ref_stack.ckpt = live.ckpt;
  std::unique_ptr<InferenceEngine> ref =
      MakeReferenceEngine(ref_stack, ref_stack.stream->graph());
  if (!ref) {
    report->reference_ok = false;
    return;
  }

  // Responses by version: every response of a segment without appends
  // (its version never changed), every response on the last version, and
  // one sampled response on each other version.
  struct Item {
    std::vector<int64_t> ids;
    uint64_t digest;
  };
  const int64_t last_version = live.base_version + runner.batches_applied();
  std::map<int64_t, std::vector<Item>> by_version;
  for (const auto& seg : runner.segments()) {
    for (size_t i = 0; i < seg->records.size(); ++i) {
      const ReadRecord& rec = seg->records[i];
      if (rec.version < 0 || !seg->reads[i].ok) continue;
      std::vector<Item>& items = by_version[rec.version];
      if (!seg->appends || items.empty() || rec.version == last_version) {
        items.push_back(
            {runner.inputs().RequestIds(seg->tag, static_cast<int64_t>(i)),
             rec.digest});
      }
    }
  }

  std::vector<double> reference(static_cast<size_t>(cfg.serve_users));
  std::vector<char> known(static_cast<size_t>(cfg.serve_users));
  for (int64_t v = live.base_version; v <= last_version; ++v) {
    if (v > live.base_version) {
      const int64_t g = v - live.base_version - 1;
      Result<StreamingApplyResult> applied = ref_stack.stream->Apply(
          runner.inputs().Batch(g, ref_stack.append_start));
      if (!applied.ok() ||
          !ref->ApplyDelta(applied.value().graph, ref_stack.plan.now_cutoff,
                           applied.value().delta)
               .ok()) {
        report->reference_ok = false;
        return;
      }
    }
    auto it = by_version.find(v);
    if (it == by_version.end()) continue;
    ++report->versions_checked;
    std::fill(known.begin(), known.end(), 0);
    std::vector<int64_t> distinct;
    for (const Item& item : it->second) {
      for (int64_t id : item.ids) {
        if (!known[static_cast<size_t>(id)]) {
          known[static_cast<size_t>(id)] = 1;
          distinct.push_back(id);
        }
      }
    }
    for (size_t b = 0; b < distinct.size(); b += 256) {
      std::vector<int64_t> chunk(
          distinct.begin() + static_cast<int64_t>(b),
          distinct.begin() +
              static_cast<int64_t>(std::min(distinct.size(), b + 256)));
      Result<std::vector<double>> scores = ref->Score(chunk);
      if (!scores.ok()) {
        report->reference_ok = false;
        return;
      }
      for (size_t k = 0; k < chunk.size(); ++k) {
        reference[static_cast<size_t>(chunk[k])] = scores.value()[k];
      }
    }
    for (const Item& item : it->second) {
      std::vector<double> want;
      want.reserve(item.ids.size());
      for (int64_t id : item.ids) {
        want.push_back(reference[static_cast<size_t>(id)]);
      }
      report->rows_checked += static_cast<int64_t>(item.ids.size());
      report->mismatched_reads += ScoresDigest(want) != item.digest ? 1 : 0;
    }
  }
}

// ---- traced replays ----------------------------------------------------------------

/// Times each stage of the query through the layers' public functions.
void ReplayQuery(const Config& cfg, const Database& db,
                 double traced_query_s, MetricList* m) {
  Timer t;
  ParsedQuery parsed = ParseQuery(cfg.query).value();
  ResolvedQuery rq = AnalyzeQuery(parsed, db).value();
  const double parse_ms = t.Millis();
  t.Reset();
  std::vector<Timestamp> cutoffs = MakeCutoffs(rq, db).value();
  TrainingTable table = BuildTrainingTable(rq, db, cutoffs).value();
  Split split = MakeSplit(rq, table, cutoffs).value();
  const double label_ms = t.Millis();
  t.Reset();
  DbGraph dbg = BuildDbGraph(db).value();
  const double build_ms = t.Millis();

  // Model and sampler configuration exactly as the engine compiles them.
  PredictiveQueryEngine pqe(&db);
  ServePlan plan = pqe.CompileForServing(cfg.query).value();
  const Options& opts = parsed.model_options;
  TrainerConfig tc;
  tc.epochs = opts.GetInt("epochs", tc.epochs);
  tc.patience = opts.GetInt("patience", tc.patience);
  tc.batch_size = opts.GetInt("batch", tc.batch_size);
  tc.lr = static_cast<float>(opts.GetDouble("lr", tc.lr));
  tc.seed = plan.seed;
  const NodeTypeId users = dbg.type_of(rq.entity->name());

  GnnNodePredictor predictor(&dbg.graph, users, rq.kind, table.num_classes,
                             plan.gnn, plan.sampler, tc);
  t.Reset();
  Status fit = predictor.Fit(table, split);
  const double fit_ms = t.Millis();
  if (!fit.ok()) std::fprintf(stderr, "replay Fit: %s\n", fit.ToString().c_str());
  t.Reset();
  predictor.PredictScores(table, split.train);
  predictor.PredictScores(table, split.val);
  predictor.PredictScores(table, split.test);
  const double predict_ms = t.Millis();

  // One epoch of batch sampling and training forwards.
  NeighborSampler sampler(&dbg.graph, plan.sampler);
  Rng rng(Mix(cfg.seed, 5));
  auto batches = MakeBatches(static_cast<int64_t>(split.train.size()),
                             tc.batch_size, &rng);
  Rng init(Mix(cfg.seed, 6));
  HeteroSageModel model(&dbg.graph, plan.gnn, &init);
  double sample_ms = 0, forward_ms = 0, frontier = 0, edges = 0;
  for (const auto& batch : batches) {
    std::vector<int64_t> seeds;
    std::vector<Timestamp> seed_cutoffs;
    for (int64_t bp : batch) {
      const int64_t row = split.train[static_cast<size_t>(bp)];
      seeds.push_back(table.entity_rows[static_cast<size_t>(row)]);
      seed_cutoffs.push_back(table.cutoffs[static_cast<size_t>(row)]);
    }
    t.Reset();
    Subgraph sg = sampler.Sample(users, seeds, seed_cutoffs, &rng);
    sample_ms += t.Millis();
    frontier += static_cast<double>(sg.TotalFrontierNodes());
    edges += static_cast<double>(sg.TotalBlockEdges());
    t.Reset();
    VarPtr out = model.Forward(sg, users, &rng, /*training=*/true);
    forward_ms += t.Millis();
  }
  const double nb = std::max<double>(1.0, static_cast<double>(batches.size()));

  m->Add("pq.parse_ms", parse_ms, "ms");
  m->Add("pq.label_build_ms", label_ms, "ms");
  m->Add("db2graph.build_ms", build_ms, "ms");
  m->Add("train.fit_ms", fit_ms, "ms");
  m->Add("train.rows_per_s",
         static_cast<double>(split.train.size()) *
             static_cast<double>(tc.epochs) / (fit_ms / 1000.0),
         "1/s");
  m->Add("train.predict_ms", predict_ms, "ms");
  m->Add("train.prefetch_stalls",
         static_cast<double>(predictor.prefetch_stalls()), "count");
  m->Add("sampler.batch_sample_ms", sample_ms / nb, "ms");
  m->Add("sampler.frontier_nodes", frontier / nb, "count");
  m->Add("sampler.block_edges", edges / nb, "count");
  m->Add("gnn.train_forward_ms", forward_ms / nb, "ms");
  m->Add("trace.query_coverage",
         (parse_ms + label_ms + build_ms + fit_ms + predict_ms) /
             (traced_query_s * 1000.0),
         "ratio");
}

/// Times each stage of the cold serving path for `ids` (all computed from
/// scratch, as cache misses are) and compares the sum with the service
/// time of a caches-off engine on the same rows.
void ReplayServe(const Config& cfg, const Stack& s,
                 const std::vector<int64_t>& ids, MetricList* m) {
  std::shared_ptr<const HeteroGraph> graph = s.stream->graph();
  const Timestamp cutoff = s.engine->now_cutoff();
  const uint64_t salt = s.engine->serving_salt();
  const int64_t mb = s.engine->serve_options().micro_batch_size;
  NeighborSampler sampler(graph.get(), s.plan.sampler);
  Rng init(Mix(cfg.seed, 7));
  HeteroSageModel model(graph.get(), s.plan.gnn, &init);
  ScalarHead head(s.plan.gnn.hidden_dim, &init);

  Timer t;
  std::vector<Subgraph> parts;
  parts.reserve(ids.size());
  double sample_us = 0, concat_us = 0, forward_us = 0, head_us = 0;
  for (int64_t id : ids) {
    t.Reset();
    parts.push_back(sampler.SampleForServing(s.users, id, cutoff, salt));
    sample_us += t.Seconds() * 1e6;
  }
  int64_t micro_batches = 0;
  for (size_t b = 0; b < parts.size(); b += static_cast<size_t>(mb)) {
    std::vector<const Subgraph*> ptrs;
    for (size_t k = b; k < std::min(parts.size(), b + static_cast<size_t>(mb));
         ++k) {
      ptrs.push_back(&parts[k]);
    }
    t.Reset();
    Subgraph sg = ConcatSubgraphs(graph.get(), ptrs);
    concat_us += t.Seconds() * 1e6;
    t.Reset();
    VarPtr emb = model.ForwardOn(graph.get(), sg, s.users, nullptr,
                                 /*training=*/false, Precision::kFp32);
    forward_us += t.Seconds() * 1e6;
    t.Reset();
    VarPtr out = head.Forward(ag::Constant(emb->value()));
    head_us += t.Seconds() * 1e6;
    ++micro_batches;
  }

  std::unique_ptr<InferenceEngine> ref = MakeReferenceEngine(s, graph);
  double service_us = 0;
  for (size_t b = 0; ref && b < ids.size(); b += static_cast<size_t>(mb)) {
    std::vector<int64_t> chunk(
        ids.begin() + static_cast<int64_t>(b),
        ids.begin() + static_cast<int64_t>(
                          std::min(ids.size(), b + static_cast<size_t>(mb))));
    t.Reset();
    (void)ref->Score(chunk);
    service_us += t.Seconds() * 1e6;
  }
  const double nmb = std::max<double>(1.0, static_cast<double>(micro_batches));
  m->Add("sampler.serve_sample_us",
         sample_us / std::max<double>(1.0, static_cast<double>(ids.size())),
         "us");
  m->Add("sampler.concat_us", concat_us / nmb, "us");
  m->Add("gnn.serve_forward_us", forward_us / nmb, "us");
  m->Add("gnn.head_us", head_us / nmb, "us");
  m->Add("trace.serve_coverage",
         service_us > 0
             ? (sample_us + concat_us + forward_us + head_us) / service_us
             : 0.0,
         "ratio");
}

// ---- metrics ------------------------------------------------------------------------

MetricList EndToEnd(const Pass& pass, const std::vector<double>& setup_s,
                    double success_frac) {
  MetricList m;
  std::vector<double> wall, auc;
  for (const QueryRep& q : pass.queries) {
    wall.push_back(q.wall_s);
    if (q.ok) auc.push_back(q.auc);
  }
  const std::vector<double> lat = perfbench::DueLatenciesMs(pass.nominal->reads);
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("query_s", Median(wall), "s");
  m.Add("query_test_auc", auc.empty() ? 0.0 : Median(auc), "auc");
  m.Add("serve_p50_ms", Percentile(lat, 0.5), "ms");
  m.Add("success_frac", success_frac, "ratio");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  return m;
}

/// Per-layer figures of the traced pass's timed segments.
void ServeLayers(const Pass& pass, MetricList* m) {
  const Segment& nom = *pass.nominal;
  // User-facing figures that are unbounded layer figures rather than
  // end-to-end metrics: on a host whose hypervisor steals several percent
  // of CPU time in bursts they move by more than any usable bound from
  // run to run (see README.md).
  const std::vector<double> fresh =
      perfbench::DueLatenciesMs(PooledWrites(pass).timings);
  m->Add("serve_p99_ms", WindowedP99(perfbench::DueLatenciesMs(nom.reads)),
         "ms");
  m->Add("serve_max_rps", pass.max_rps, "1/s");
  m->Add("fresh_p50_ms", Percentile(fresh, 0.5), "ms");
  m->Add("fresh_p99_ms", WindowedP99(fresh), "ms");
  const std::vector<double> queue = perfbench::QueueMs(nom.reads);
  const std::vector<double> service = perfbench::ServiceMs(nom.reads);
  const double n = static_cast<double>(nom.reads.size());
  m->Add("bench.queue_ms_p50", Percentile(queue, 0.5), "ms");
  m->Add("bench.queue_ms_p99",
         WindowedP99(queue), "ms");
  m->Add("serve.service_ms_p50", Percentile(service, 0.5), "ms");
  m->Add("serve.service_ms_p99",
         WindowedP99(service), "ms");
  m->Add("serve.embedding_hit_rate",
         HitRate(nom.s1.embedding_hits - nom.s0.embedding_hits,
                 nom.s1.embedding_misses - nom.s0.embedding_misses),
         "ratio");
  m->Add("serve.subgraph_hit_rate",
         HitRate(nom.s1.subgraph_hits - nom.s0.subgraph_hits,
                 nom.s1.subgraph_misses - nom.s0.subgraph_misses),
         "ratio");
  const double batches = static_cast<double>(nom.c1.batches - nom.c0.batches);
  const double requests =
      static_cast<double>(nom.c1.requests - nom.c0.requests);
  const double submitted =
      static_cast<double>(nom.c1.rows_submitted - nom.c0.rows_submitted);
  m->Add("serve.coalesce_rows_per_batch",
         batches > 0 ? static_cast<double>(nom.c1.rows_executed -
                                           nom.c0.rows_executed) /
                           batches
                     : 0.0,
         "count");
  m->Add("serve.coalesced_frac",
         requests > 0 ? static_cast<double>(nom.c1.coalesced_requests -
                                            nom.c0.coalesced_requests) /
                            requests
                      : 0.0,
         "ratio");
  m->Add("serve.dedup_frac",
         submitted > 0
             ? static_cast<double>(nom.c1.dedup_rows - nom.c0.dedup_rows) /
                   submitted
             : 0.0,
         "ratio");
  m->Add("tensor.gemm_flops_per_request",
         n > 0 ? static_cast<double>(nom.flops1 - nom.flops0) / n : 0.0,
         "flop");
  m->Add("arena.heap_allocs",
         static_cast<double>(nom.a1.heap_allocs - nom.a0.heap_allocs),
         "count");
  const Writes fr = PooledWrites(pass);
  m->Add("stream.apply_ms_p50", Percentile(fr.apply_ms, 0.5), "ms");
  m->Add("stream.apply_ms_p99",
         WindowedP99(fr.apply_ms),
         "ms");
  m->Add("stream.compactions", static_cast<double>(fr.compactions), "count");
  m->Add("serve.apply_delta_ms_p50", Percentile(fr.delta_ms, 0.5), "ms");
  m->Add("serve.apply_delta_ms_p99",
         WindowedP99(fr.delta_ms),
         "ms");
  double miss_sum = 0;
  for (double v : fr.delta_miss_rows) miss_sum += v;
  m->Add("serve.delta_miss_rows",
         fr.delta_miss_rows.empty()
             ? 0.0
             : miss_sum / static_cast<double>(fr.delta_miss_rows.size()),
         "count");
  const std::vector<double> lag = perfbench::GeneratorLagMs(nom.reads);
  m->Add("bench.gen_lag_p99_ms",
         WindowedP99(lag), "ms");
  m->Add("bench.backlog_max",
         static_cast<double>(perfbench::BacklogMax(nom.reads)), "count");
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseConfig(Args(argc, argv));
  const std::pair<int64_t, int64_t> jiffies0 = CpuJiffies();
  // Timed runs measure with the program's metrics off; it is on by
  // default, so switch it explicitly.
  SetMetricsEnabled(false);
  std::fprintf(stderr, "perfbench %s seed %llu: %.0f s, trace %d, pool %d\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.seconds, cfg.trace ? 1 : 0, NumThreads());

  // ---- set-up, several times; the last stack serves the run -------------
  Database query_db = MakeECommerceDb(
      WorldConfig(cfg.query_users, cfg.query_products, Mix(cfg.world_seed, 1)));
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack_ptr;
  for (int64_t r = 0; r < cfg.setup_reps; ++r) {
    stack_ptr.reset();
    stack_ptr = std::make_unique<Stack>();
    const int64_t t0 = perfbench::NowNs();
    Status st = BuildStack(cfg, stack_ptr.get());
    setup_s.push_back(Seconds(perfbench::NowNs() - t0));
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "  set-up: %.3f s median\n", Median(setup_s));
  Stack& stack = *stack_ptr;

  // ---- timed passes -------------------------------------------------------
  Runner runner(cfg, &stack, &query_db);
  Pass plain = runner.RunPass(cfg.trace ? 0.5 : 1.0, 1, cfg.trace);
  Pass traced;
  std::vector<int64_t> replay_ids;
  MetricList layers;
  if (cfg.trace) {
    SetMetricsEnabled(true);
    TraceCollector::Global().Reset();
    traced = runner.RunPass(0.5, 2, true);
    // Replay ids: distinct ids of the traced nominal segment, in order.
    std::set<int64_t> seen;
    for (size_t i = 0; i < traced.nominal->reads.size() &&
                       static_cast<int64_t>(replay_ids.size()) <
                           cfg.replay_serve_rows;
         ++i) {
      for (int64_t id : runner.inputs().RequestIds(traced.nominal->tag,
                                                   static_cast<int64_t>(i))) {
        if (seen.insert(id).second &&
            static_cast<int64_t>(replay_ids.size()) < cfg.replay_serve_rows) {
          replay_ids.push_back(id);
        }
      }
    }
    std::vector<double> qwall;
    double flops_per_row = 0;
    for (const QueryRep& q : traced.queries) {
      qwall.push_back(q.wall_s);
      if (q.ok && q.rows > 0) {
        flops_per_row = static_cast<double>(q.flops) / static_cast<double>(q.rows);
      }
    }
    ReplayQuery(cfg, query_db, Median(qwall), &layers);
    layers.Add("tensor.gemm_flops_per_row", flops_per_row, "flop");
    ReplayServe(cfg, stack, replay_ids, &layers);
    ServeLayers(traced, &layers);
    SetMetricsEnabled(false);
    (void)WriteTraceJson(cfg.scratch + "/trace_" + cfg.workload + ".json");
  }

  // ---- gates ----------------------------------------------------------------
  // A last burst of reads after the final delta, checked in full.
  runner.Burst(0xF, 64);
  GateReport gates;
  {
    Result<DbGraph> rebuilt =
        BuildDbGraph(*stack.db, stack.stream->RebuildOptions());
    gates.graph_equal = rebuilt.ok() && GraphsEqual(*stack.stream->graph(),
                                                    rebuilt.value().graph);
  }
  VerifyServing(cfg, runner, stack, &gates);
  std::vector<double> aucs;
  for (const Pass* p : {&plain, &traced}) {
    for (const QueryRep& q : p->queries) {
      if (q.ok) aucs.push_back(q.auc);
    }
  }
  for (double a : aucs) {
    if (std::memcmp(&a, &aucs.front(), sizeof(double)) != 0) {
      gates.auc_identical = false;
    }
    if (!(a > cfg.auc_floor)) gates.auc_above_floor = false;
  }

  // ---- failures -------------------------------------------------------------
  int64_t attempted = 0, failed = 0;
  for (const Pass* p : {&plain, &traced}) {
    for (const QueryRep& q : p->queries) {
      ++attempted;
      failed += q.ok ? 0 : 1;
    }
  }
  for (const auto& seg : runner.segments()) {
    for (const OpTiming& t : seg->reads) {
      ++attempted;
      failed += t.ok ? 0 : 1;
    }
    for (const OpTiming& t : seg->writes) {
      ++attempted;
      failed += t.ok ? 0 : 1;
    }
  }
  failed += gates.mismatched_reads;
  if (!gates.reference_ok) ++failed;
  if (!gates.graph_equal) ++failed;
  if (!gates.auc_identical) ++failed;
  if (!gates.auc_above_floor) ++failed;
  if (aucs.empty()) ++failed;
  const bool correct = gates.reference_ok && gates.graph_equal &&
                       gates.auc_identical && gates.auc_above_floor &&
                       gates.mismatched_reads == 0 &&
                       runner.append_rejects() == 0 &&
                       failed == 0;
  const double success_frac =
      1.0 - static_cast<double>(failed) / static_cast<double>(attempted);

  MetricList e2e = EndToEnd(plain, setup_s, success_frac);
  MetricList out_metrics = e2e;
  if (cfg.trace) {
    MetricList e2e_traced = EndToEnd(traced, setup_s, success_frac);
    for (const auto& item : e2e.items) {
      layers.Add("trace.overhead." + item.first,
                 e2e_traced.Get(item.first) - item.second.first,
                 item.second.second);
    }
    out_metrics = layers;
  }

  // Self-check figures: the timed nominal segment of the reported pass.
  const Pass& rep = cfg.trace ? traced : plain;
  const Segment& nom = *rep.nominal;
  const double emb_hit =
      HitRate(nom.s1.embedding_hits - nom.s0.embedding_hits,
              nom.s1.embedding_misses - nom.s0.embedding_misses);
  const double submitted =
      static_cast<double>(nom.c1.rows_submitted - nom.c0.rows_submitted);
  const double dedup =
      submitted > 0
          ? static_cast<double>(nom.c1.dedup_rows - nom.c0.dedup_rows) /
                submitted
          : 0.0;
  const std::vector<double> lag = perfbench::GeneratorLagMs(nom.reads);

  const size_t fresh_n = PooledWrites(rep).timings.size();
  std::string probes = "[";
  for (size_t i = 0; i < rep.probes.size(); ++i) {
    const perfbench::RungVerdict& v = rep.probes[i];
    if (i) probes += ", ";
    probes += "{\"rate\": " + Num(v.rate) + ", \"n\": " +
              std::to_string(v.n) + ", \"tail_ms\": " + Num(v.tail_ms) +
              ", \"failures\": " + std::to_string(v.failures) +
              ", \"backlog_end\": " + std::to_string(v.backlog_end) +
              ", \"p50_ms\": " + Num(v.p50_ms) + ", \"p90_ms\": " +
              Num(v.p90_ms) +
              ", \"pass\": " + (v.pass ? "true" : "false") + "}";
  }
  probes += "]";

  const std::pair<int64_t, int64_t> jiffies1 = CpuJiffies();
  const double steal_frac =
      jiffies1.second > jiffies0.second
          ? static_cast<double>(jiffies1.first - jiffies0.first) /
                static_cast<double>(jiffies1.second - jiffies0.second)
          : 0.0;
  std::string json = "{";
  json += "\"correct\": " + std::string(correct ? "true" : "false");
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": " + out_metrics.Json();
  json += ", \"end_to_end\": " + e2e.Json();
  json += ", \"checks\": {\"embedding_hit_rate\": " + Num(emb_hit) +
          ", \"dedup_frac\": " + Num(dedup) + ", \"gen_lag_p99_ms\": " +
          Num(WindowedP99(lag)) +
          ", \"generator_threads\": " + std::to_string(cfg.readers + 1) +
          ", \"pool_threads\": " + std::to_string(NumThreads()) +
          ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) + "}";
  const std::vector<double> nom_lat = perfbench::DueLatenciesMs(nom.reads);
  std::string query_walls = "[";
  for (const QueryRep& q : rep.queries) {
    if (query_walls.size() > 1) query_walls += ", ";
    query_walls += Num(q.wall_s);
  }
  query_walls += "]";
  json += ", \"samples\": {\"serve\": " + std::to_string(nom.reads.size()) +
          ", \"serve_p99_windows\": " +
          std::to_string(nom.reads.size() / perfbench::kTailWindow) +
          ", \"serve_p99_pooled_ms\": " +
          Num(Percentile(nom_lat, ReportedPercentile(nom_lat.size(), 0.99))) +

          ", \"fresh\": " + std::to_string(fresh_n) +
          ", \"fresh_tail_pct\": " +
          Num(100 * ReportedPercentile(fresh_n, 0.99)) +
          ", \"queries\": " + std::to_string(rep.queries.size()) +
          ", \"query_wall_s\": " + query_walls +
          ", \"setups\": " + std::to_string(setup_s.size()) + "}";
  json += ", \"probes\": " + probes;
  json += ", \"gates\": {\"rows_checked\": " +
          std::to_string(gates.rows_checked) + ", \"versions_checked\": " +
          std::to_string(gates.versions_checked) + ", \"mismatched_reads\": " +
          std::to_string(gates.mismatched_reads) + ", \"append_rejects\": " +
          std::to_string(runner.append_rejects()) + ", \"reference_ok\": " +
          (gates.reference_ok ? "true" : "false") + ", \"graph_equal\": " +
          (gates.graph_equal ? "true" : "false") + ", \"auc_identical\": " +
          (gates.auc_identical ? "true" : "false") + ", \"auc_above_floor\": " +
          (gates.auc_above_floor ? "true" : "false") + "}";
  json += ", \"stamp\": {\"cpu\": \"" + JsonEscape(CpuModel()) +
          "\", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"simd\": \"" + kern::SimdName() + "\", \"build_type\": \"" +
          PERFBENCH_BUILD_TYPE + "\", \"pool_threads\": " +
          std::to_string(NumThreads()) + ", \"generator_threads\": " +
          std::to_string(cfg.readers + 1) + ", \"seed\": " +
          std::to_string(cfg.seed) + ", \"steal_frac\": " + Num(steal_frac) +
          "}";
  json += "}\n";

  std::ofstream out(cfg.out);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out.c_str());
    return 1;
  }
  return 0;
}
