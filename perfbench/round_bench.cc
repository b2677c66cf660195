// felip_round_bench — complete FELIP rounds in one process, over real TCP
// on 127.0.0.1, wired the way tools/felip_server.cc wires its servers.
//
//   felip_round_bench --workload=<ingest-olh|sharded-durable|epoch-queries>
//       --seed=<n> --seconds=<s> --trace=<0|1> --scratch=<dir>
//       [--scale=<f>] [--git-sha=<sha>] [--source-digest=<hex>]
//
// Inputs (datasets, perturbed and encoded 1024-report batches, queries,
// in-process references) are generated from --seed before any timing.
// The bench then runs fresh rounds (set-up, ingest, finalize, scoring
// queries, teardown) until --seconds have passed, checks every round
// against the correctness gates, and prints medians over the rounds.
//
// --trace=0 prints the end-to-end metrics. --trace=1 alternates untraced
// and traced rounds: traced rounds install bench-side decorators on the
// layer seams (probes.h) and read the obs spans the library records, and
// the output is the per-layer table. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any gate failed. See README.md for how to read it.

#include <malloc.h>

#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "felip/common/flags.h"
#include "felip/common/hash.h"
#include "felip/common/parallel.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/client.h"
#include "felip/dist/partition.h"
#include "felip/dist/root.h"
#include "felip/fo/registry.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/replaylog/replay.h"
#include "felip/replaylog/store.h"
#include "felip/simd/dispatch.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/client.h"
#include "felip/svc/message.h"
#include "felip/svc/query_service.h"
#include "felip/svc/server.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"
#include "probes.h"

namespace felip::perfbench {
namespace {

constexpr char kAnyPort[] = "127.0.0.1:0";
constexpr size_t kBatchReports = 1024;
constexpr size_t kScoringQueries = 1000;
// Sends of the scoring batch per round on the single-round workloads,
// so their query percentiles rest on more than one sample.
constexpr int kScoringSends = 8;
constexpr uint64_t kDeviceSliceUsers = 65536;
constexpr size_t kQueryBatch = 256;
constexpr size_t kMinQueryPool = 64 * kQueryBatch;
constexpr uint32_t kWindow = 4;
constexpr double kDecay = 0.5;
constexpr int kWaitMs = 60000;
// Query servers answer each batch on their IO thread. The batch engine's
// default spawns one thread per core for every batch, so the query
// connection would claim the whole machine beside ingest and its latency
// would measure thread start-up on a shared host more than answering.
const svc::QueryServerOptions kQueryOptions{.answer_threads = 1};

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names and units; the
// smoke check in run.py holds the two together.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_s", "s"},
    {"ingest_reports_per_s", "reports/s"},
    {"cpu_us_per_report", "us"},
    {"ack_p50_ms", "ms"},
    {"ack_p99_ms", "ms"},
    {"device_us_per_report", "us"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"queries_per_s", "queries/s"},
    {"epoch_visible_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"grid.plan_s", "s"},
    {"core.begin_ingest_s", "s"},
    {"svc.handler_us_p50", "us"},
    {"svc.handler_us_p99", "us"},
    {"svc.backpressure_ratio", "ratio"},
    {"svc.drain_serial_share", "ratio"},
    {"svc.drain_self_s", "s"},
    {"svc.drain_coverage", "ratio"},
    {"wire.decode_ns_per_report", "ns"},
    {"wire.bytes_per_report", "B"},
    {"wire.encode_ns_per_report", "ns"},
    {"svc.simulate_ns_per_report", "ns"},
    {"fo.sink_ns_per_report", "ns"},
    {"core.finalize_s", "s"},
    {"core.finalize_self_s", "s"},
    {"core.estimate_s", "s"},
    {"post.consistency_s", "s"},
    {"post.response_matrix_s", "s"},
    {"dist.route_skew", "ratio"},
    {"dist.pull_s", "s"},
    {"dist.frame_bytes", "B"},
    {"dist.merge_s", "s"},
    {"replaylog.append_us_p50", "us"},
    {"replaylog.append_us_p99", "us"},
    {"replaylog.bytes_per_report", "B"},
    {"replaylog.seal_s", "s"},
    {"snapshot.checkpoint_ms_p50", "ms"},
    {"snapshot.checkpoint_ms_p99", "ms"},
    {"snapshot.checkpoints", "count"},
    {"snapshot.bytes_per_checkpoint", "B"},
    {"stream.seal_ms_p50", "ms"},
    {"stream.seal_ms_max", "ms"},
    {"stream.segment_bytes", "B"},
    {"svc.after_drain_keys_per_batch", "count"},
    {"svc.query_overhead_s", "s"},
    {"core.answer_us_per_query_l2", "us"},
    {"core.answer_us_per_query_l3", "us"},
    {"core.answer_us_per_query_l4", "us"},
    {"stream.window_us_per_query", "us"},
    {"core.answer_mae", "fraction"},
    {"proc.ctx_switches_per_batch", "count"},
    {"svc.failed_op_ratio", "ratio"},
    {"obs.trace_overhead_ratio", "ratio"},
};

// ---------------------------------------------------------------------------
// Workloads.

enum class Kind { kIngestOlh, kShardedDurable, kEpochQueries };

struct Workload {
  Kind kind = Kind::kIngestOlh;
  std::string name;
  uint64_t users = 0;       // whole round (all epochs)
  uint64_t epochs = 1;      // populations of users / epochs reports each
  uint32_t attributes = 6;
  uint32_t num_domain = 100;
  uint32_t cat_domain = 8;
  core::FelipConfig config;
  uint32_t shards = 1;
  unsigned drain_workers = 2;  // per ingest node
  unsigned senders = 2;        // closed-loop sender connections
  size_t query_pool = 0;       // epoch-queries: first round's query pool

  uint64_t epoch_users() const { return users / epochs; }
};

std::optional<Workload> MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  w.config.epsilon = 1.0;
  w.config.strategy = core::Strategy::kOhg;
  if (name == "ingest-olh") {
    // The paper's default: AFO over {grr, olh}.
    w.kind = Kind::kIngestOlh;
    w.users = 1000000;
  } else if (name == "sharded-durable") {
    w.kind = Kind::kShardedDurable;
    w.users = 1000000;
    w.num_domain = 1024;
    w.shards = 2;
    w.drain_workers = 1;
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      w.config.SetProtocolAllowed(traits.protocol, false);
    }
    w.config.allow_oue = true;
    w.config.allow_pgr = true;
    w.config.allow_fldp = true;
    w.config.report_budget_bytes = 24;
  } else if (name == "epoch-queries") {
    w.kind = Kind::kEpochQueries;
    w.users = 1000000;
    w.epochs = 8;
    w.attributes = 8;
    w.num_domain = 1024;
    // One drain worker keeps the single connection's batches in send
    // order, so every report lands in its own count-triggered epoch.
    w.drain_workers = 1;
    w.senders = 1;
    w.query_pool = 512 * kQueryBatch;
  } else {
    return std::nullopt;
  }
  w.users = static_cast<uint64_t>(static_cast<double>(w.users) * scale);
  w.users -= w.users % w.epochs;
  if (w.users < 1000 * w.epochs) return std::nullopt;
  return w;
}

// ---------------------------------------------------------------------------
// Inputs, generated from the seed before timing.

// One population: the whole round, or one epoch of epoch-queries.
struct Population {
  data::Dataset dataset;
  core::FelipConfig config;
  std::vector<std::vector<uint8_t>> frames;  // encoded report batches
  std::vector<uint64_t> frame_reports;
  uint64_t reference_digest = 0;  // in-process Collect + Finalize
  std::unique_ptr<svc::PopulationSimulator> devices;
};

struct Inputs {
  core::FelipConfig base_config;  // the workload config, seeded
  std::vector<Population> populations;
  // In-process reference of the last population: scoring answers and
  // (epoch-queries) the λ-homogeneous answer timing.
  std::unique_ptr<core::FelipPipeline> reference;
  std::vector<query::Query> scoring;
  std::vector<double> scoring_reference;
  double answer_mae = 0.0;
  std::vector<query::Query> lambda_slices[3];  // λ = 2, 3, 4
  uint64_t reports = 0;
  uint64_t frame_bytes = 0;
  // The first rows of the first population, re-simulated every round to
  // time the device side.
  std::optional<data::Dataset> device_slice;
};

uint64_t QueryKey(const query::Query& q) {
  uint64_t h = q.dimension();
  for (const query::Predicate& p : q.predicates()) {
    h = XxHash64((uint64_t{p.attr} << 40) ^ (uint64_t(p.op) << 32) ^ p.lo, h);
    h = XxHash64(p.hi, h);
    for (uint32_t v : p.values) h = XxHash64(v, h);
  }
  return h;
}

// λ ∈ {2, 3} with equal odds: the fixed scoring batch.
std::vector<query::Query> ScoringQueries(const data::Dataset& dataset,
                                         uint64_t seed) {
  Rng rng(seed ^ 0x5c0e);
  std::vector<query::Query> queries;
  queries.reserve(kScoringQueries);
  for (size_t i = 0; i < kScoringQueries; ++i) {
    const auto dimension = static_cast<uint32_t>(2 + rng.UniformU64(2));
    queries.push_back(
        query::GenerateQuery(dataset, {.dimension = dimension}, rng));
  }
  return queries;
}

// Queries already drawn in this run, as a fixed-size bit set over their
// hashes: a collision only skips a fresh query, never admits a repeat,
// and memory stays flat however many rounds a run makes.
class SeenQueries {
 public:
  SeenQueries() : bits_(kWords, 0) {}
  // False when `q` (or a query of the same hash) was drawn before.
  bool Insert(const query::Query& q) {
    const uint64_t bit = QueryKey(q) % (kWords * 64);
    uint64_t& word = bits_[bit / 64];
    const uint64_t mask = uint64_t{1} << (bit % 64);
    if ((word & mask) != 0) return false;
    word |= mask;
    return true;
  }

 private:
  static constexpr size_t kWords = size_t{1} << 21;  // 2^27 bits, 16 MB
  std::vector<uint64_t> bits_;
};

// λ 2/3/4 at 50/30/20%, never repeating a query drawn before.
std::vector<query::Query> MixedQueries(const data::Dataset& dataset,
                                       size_t count, Rng& rng,
                                       SeenQueries* seen) {
  std::vector<query::Query> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    const uint64_t draw = rng.UniformU64(10);
    const uint32_t dimension = draw < 5 ? 2 : (draw < 8 ? 3 : 4);
    query::Query q =
        query::GenerateQuery(dataset, {.dimension = dimension}, rng);
    if (seen->Insert(q)) queries.push_back(std::move(q));
  }
  return queries;
}

// CPU seconds one device thread spends simulating (project + perturb)
// and encoding the reports of `dataset`.
struct DeviceCost {
  double simulate_s = 0.0;
  double encode_s = 0.0;
};

DeviceCost RunDevices(const svc::PopulationSimulator& devices,
                      const data::Dataset& dataset,
                      std::vector<std::vector<uint8_t>>* frames,
                      std::vector<uint64_t>* frame_reports) {
  DeviceCost cost;
  const double start = ThreadCpuSeconds();
  devices.Run(dataset, [&](const std::vector<wire::ReportMessage>& batch) {
    const double before = ThreadCpuSeconds();
    frames->push_back(wire::EncodeReportBatch(batch));
    cost.encode_s += ThreadCpuSeconds() - before;
    if (frame_reports != nullptr) frame_reports->push_back(batch.size());
    return true;
  });
  cost.simulate_s = ThreadCpuSeconds() - start - cost.encode_s;
  return cost;
}

Population MakePopulation(const Workload& w, uint64_t users,
                          core::FelipConfig config, uint64_t data_seed,
                          Inputs* in) {
  Population pop{data::MakeIpumsLike(users, w.attributes, w.num_domain,
                                     w.cat_domain, data_seed),
                 std::move(config), {}, {}, 0, nullptr};
  const core::FelipPipeline planned(pop.dataset.attributes(), users,
                                    pop.config);
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < planned.num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        planned, pop.dataset.attributes(), g, planned.per_grid_epsilon(),
        pop.config.protocol_options()));
  }
  svc::SimulatorOptions options;
  options.seed = pop.config.seed;
  options.partitioning = pop.config.partitioning;
  options.batch_size = kBatchReports;
  pop.devices = std::make_unique<svc::PopulationSimulator>(
      std::move(grid_configs), options);
  RunDevices(*pop.devices, pop.dataset, &pop.frames, &pop.frame_reports);
  in->reports += users;
  for (const auto& frame : pop.frames) in->frame_bytes += frame.size();
  return pop;
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  in.base_config = w.config;
  in.base_config.seed = seed;
  for (uint64_t e = 0; e < w.epochs; ++e) {
    core::FelipConfig config = w.kind == Kind::kEpochQueries
                                   ? stream::EpochConfig(in.base_config, e)
                                   : in.base_config;
    in.populations.push_back(
        MakePopulation(w, w.epoch_users(), std::move(config), seed + e, &in));
  }
  // References: grid-frequency digests of in-process collection on the
  // same datasets and seeds; the last one also answers the scoring batch.
  for (size_t e = 0; e < in.populations.size(); ++e) {
    Population& pop = in.populations[e];
    auto reference = std::make_unique<core::FelipPipeline>(
        pop.dataset.attributes(), w.epoch_users(), pop.config);
    reference->Collect(pop.dataset);
    reference->Finalize();
    pop.reference_digest = core::GridFrequencyDigest(*reference);
    if (e + 1 == in.populations.size()) in.reference = std::move(reference);
  }
  const data::Dataset& first = in.populations.front().dataset;
  in.device_slice = first.Prefix(std::min<uint64_t>(first.num_rows(),
                                                   kDeviceSliceUsers));
  const data::Dataset& last = in.populations.back().dataset;
  in.scoring = ScoringQueries(last, seed);
  in.scoring_reference = in.reference->AnswerQueries(in.scoring);
  std::vector<double> truth(in.scoring.size(), 0.0);
  ParallelFor(in.scoring.size(), [&](size_t i) {
    truth[i] = query::TrueAnswer(last, in.scoring[i]);
  });
  for (size_t i = 0; i < in.scoring.size(); ++i) {
    in.answer_mae += std::fabs(in.scoring_reference[i] - truth[i]);
  }
  in.answer_mae /= static_cast<double>(in.scoring.size());
  if (w.kind == Kind::kEpochQueries) {
    Rng rng(seed ^ 0x1a4bda);
    for (uint32_t d = 2; d <= 4; ++d) {
      in.lambda_slices[d - 2] = query::GenerateQueries(
          last, 2000, {.dimension = d}, rng);
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// One round.

// Operations (batch deliveries, query batches) and their attempts. An
// operation fails when it is never delivered or answered; an attempt is
// bad when it was refused (backpressure) or lost and had to be retried.
struct OpCounts {
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  uint64_t attempts = 0;
  uint64_t bad_attempts = 0;

  void Record(int tries, bool ok) {
    ++ops;
    failed_ops += ok ? 0 : 1;
    attempts += static_cast<uint64_t>(tries);
    bad_attempts += static_cast<uint64_t>(tries) - (ok ? 1 : 0);
  }
  void Add(const OpCounts& other) {
    ops += other.ops;
    failed_ops += other.failed_ops;
    attempts += other.attempts;
    bad_attempts += other.bad_attempts;
  }
};

struct RoundResult {
  std::string error;  // empty when every gate passed
  double setup_s = 0.0;
  double round_s = 0.0;
  double ingest_s = 0.0;  // first send to last drain
  double cpu_s = 0.0;
  uint64_t reports = 0;
  uint64_t batches = 0;
  std::vector<double> ack_s;
  std::vector<double> query_s;
  std::vector<double> visible_s;
  uint64_t queries = 0;
  double query_wall_s = 0.0;
  OpCounts ops;
  uint64_t rejected_reports = 0;
  DeviceCost device;  // the device slice, re-simulated after the round
  double steal_share = 0.0;  // host CPU stolen while the round ran
  double peak_rss_mb = 0.0;  // peak resident memory while the round ran
  std::map<std::string, double> layers;  // traced rounds only
};

struct SenderLog {
  std::vector<double> ack_s;
  std::vector<Clock::time_point> acked_at;
  OpCounts ops;
  bool delivered = true;
};

// Closed loop: each frame is sent once its predecessor was acked.
template <typename Client>
SenderLog SendFrames(Client* client,
                     const std::vector<const std::vector<uint8_t>*>& frames) {
  SenderLog log;
  log.ack_s.reserve(frames.size());
  log.acked_at.reserve(frames.size());
  for (const std::vector<uint8_t>* frame : frames) {
    const Clock::time_point start = Clock::now();
    const svc::SendOutcome outcome = client->SendEncodedBatch(*frame);
    const Clock::time_point end = Clock::now();
    log.ack_s.push_back(SecondsBetween(start, end));
    log.acked_at.push_back(end);
    log.ops.Record(outcome.attempts, outcome.ok());
    if (!outcome.ok()) {
      log.delivered = false;
      break;
    }
  }
  return log;
}

// Round-robin share of `frames` for sender `index` of `count`.
std::vector<const std::vector<uint8_t>*> Share(
    const std::vector<std::vector<uint8_t>>& frames, unsigned index,
    unsigned count) {
  std::vector<const std::vector<uint8_t>*> share;
  for (size_t i = index; i < frames.size(); i += count) {
    share.push_back(&frames[i]);
  }
  return share;
}

void MergeSenders(const std::vector<SenderLog>& logs, RoundResult* r,
                  Clock::time_point* last_ack) {
  for (const SenderLog& log : logs) {
    r->ack_s.insert(r->ack_s.end(), log.ack_s.begin(), log.ack_s.end());
    r->ops.Add(log.ops);
    if (!log.delivered) r->error = "batch delivery failed after retries";
    if (!log.acked_at.empty() && log.acked_at.back() > *last_ack) {
      *last_ack = log.acked_at.back();
    }
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Sends the fixed scoring batch `sends` times over one connection and
// checks every response bit for bit against the in-process reference.
void ScoreOverWire(svc::Transport* transport, const std::string& endpoint,
                   const Inputs& in, int sends, RoundResult* r) {
  svc::QueryClient client(transport, endpoint);
  for (int i = 0; i < sends && r->error.empty(); ++i) {
    const Clock::time_point start = Clock::now();
    const svc::QueryOutcome outcome = client.AnswerQueries(in.scoring);
    const double latency = SecondsBetween(start, Clock::now());
    r->query_s.push_back(latency);
    r->queries += in.scoring.size();
    r->query_wall_s += latency;
    r->ops.Record(outcome.attempts, outcome.ok());
    if (!outcome.ok()) {
      r->error = "scoring batch failed: " + outcome.status.ToString();
    } else if (!SameBits(outcome.answers, in.scoring_reference)) {
      r->error = "served answers differ from in-process AnswerQueries";
    }
  }
}

uint64_t FileBytes(const std::vector<std::string>& paths) {
  uint64_t bytes = 0;
  for (const std::string& path : paths) {
    std::error_code ec;
    const uintmax_t size = std::filesystem::file_size(path, ec);
    if (!ec) bytes += size;
  }
  return bytes;
}

// Span totals the traced table reads; differenced around a round.
struct SpanTotals {
  double drain = 0, decode = 0, finalize = 0, estimate = 0, post = 0, rm = 0;
  double svc_query = 0, served_core_query = 0;

  static SpanTotals Read() {
    SpanTotals t;
    t.drain = SpanSeconds("felip_svc_drain");
    t.decode = SpanSeconds("felip_wire_decode_batch", "felip_svc_drain");
    t.finalize = SpanSeconds("felip_core_finalize");
    t.estimate = SpanSeconds("felip_core_estimate");
    t.post = SpanSeconds("felip_core_post_process");
    t.rm = SpanSeconds("felip_core_response_matrix");
    // Windowed batches are served inside felip_svc_query_batch.
    t.svc_query = SpanSeconds("felip_svc_query_batch");
    t.served_core_query = SpanSeconds("felip_core_query_batch", "felip_svc_");
    return t;
  }
  SpanTotals operator-(const SpanTotals& o) const {
    return {drain - o.drain,       decode - o.decode,
            finalize - o.finalize, estimate - o.estimate,
            post - o.post,         rm - o.rm,
            svc_query - o.svc_query, served_core_query - o.served_core_query};
  }
};

// What every round needs beyond the workload and its inputs.
struct RoundEnv {
  bool traced = false;
  std::string dir;  // per-round scratch directory (durable state)
};

// Bookkeeping shared by the three round functions.
class RoundProbe {
 public:
  RoundProbe(const RoundEnv& env, size_t nodes) : traced_(env.traced) {
    if (!traced_) return;
    for (size_t i = 0; i < nodes; ++i) {
      nodes_.push_back(std::make_unique<NodeTrace>());
    }
  }
  bool traced() const { return traced_; }
  // Null when untraced, so decorators become pass-through.
  NodeTrace* node(size_t i) { return traced_ ? nodes_[i].get() : nullptr; }
  const std::vector<std::unique_ptr<NodeTrace>>& nodes() const {
    return nodes_;
  }

  void BeginRound() {
    usage_ = ReadProcUsage();
    spans_ = SpanTotals::Read();
    start_ = Clock::now();
  }
  Clock::time_point start() const { return start_; }
  // Closes the timed window at `ready` (the round is queryable).
  void EndRound(Clock::time_point ready, RoundResult* r) {
    const ProcUsage usage = ReadProcUsage();
    r->round_s = SecondsBetween(start_, ready);
    r->cpu_s = usage.cpu_s - usage_.cpu_s;
    context_switches_ = usage.context_switches - usage_.context_switches;
  }
  // Layer metrics shared by every workload; call after teardown.
  void FillLayers(const Inputs& in, RoundResult* r, double backpressure) {
    if (!traced_) return;
    const SpanTotals spans = SpanTotals::Read() - spans_;
    auto& L = r->layers;
    const double reports = static_cast<double>(r->reports);
    std::vector<double> handler_us;
    double children = 0.0;
    double serial = 0.0;
    double sink = 0.0;
    std::vector<double> keys;
    for (const auto& node : nodes_) {
      for (double s : node->handler_s.values()) handler_us.push_back(s * 1e6);
      children += node->CriticalSeconds();
      serial = std::max(serial, node->CriticalSeconds());
      sink += node->sink_s.Sum();
      const std::vector<double> k = node->hook_keys.values();
      keys.insert(keys.end(), k.begin(), k.end());
    }
    L["svc.handler_us_p50"] = Quantile(handler_us, 0.50);
    L["svc.handler_us_p99"] = Quantile(handler_us, 0.99);
    L["svc.backpressure_ratio"] = backpressure;
    L["svc.drain_serial_share"] = serial / r->ingest_s;
    L["svc.drain_self_s"] = spans.drain - spans.decode - children;
    L["svc.drain_coverage"] =
        spans.drain > 0 ? (spans.decode + children) / spans.drain : 0.0;
    L["wire.decode_ns_per_report"] = spans.decode * 1e9 / reports;
    L["wire.bytes_per_report"] =
        static_cast<double>(in.frame_bytes) / static_cast<double>(in.reports);
    L["fo.sink_ns_per_report"] = sink * 1e9 / reports;
    L["core.finalize_s"] = spans.finalize;
    L["core.finalize_self_s"] =
        spans.finalize - spans.estimate - spans.post - spans.rm;
    L["core.estimate_s"] = spans.estimate;
    L["post.consistency_s"] = spans.post;
    L["post.response_matrix_s"] = spans.rm;
    L["svc.after_drain_keys_per_batch"] = Mean(keys);
    L["svc.query_overhead_s"] = spans.svc_query - spans.served_core_query;
    L["proc.ctx_switches_per_batch"] =
        static_cast<double>(context_switches_) /
        static_cast<double>(r->batches);
    L["svc.failed_op_ratio"] =
        static_cast<double>(r->ops.bad_attempts + r->rejected_reports) /
        static_cast<double>(r->ops.attempts);
  }

 private:
  bool traced_;
  std::vector<std::unique_ptr<NodeTrace>> nodes_;
  ProcUsage usage_;
  SpanTotals spans_;
  Clock::time_point start_;
  uint64_t context_switches_ = 0;
};

// Mirrors felip_server's durable single-node wiring: report log append
// under the drain lock, and a checkpoint that flushes the log first so a
// cut never leads the log.
svc::IngestServerOptions DurableOptions(unsigned workers,
                                        replaylog::LogWriter* log,
                                        snapshot::Checkpointer* checkpointer,
                                        NodeTrace* trace) {
  svc::IngestServerOptions options;
  options.worker_threads = workers;
  options.report_log = TimedLog(
      [log](uint64_t key, std::span<const uint8_t> frame) {
        return log->Append(replaylog::RecordType::kBatch, key, frame);
      },
      trace ? &trace->log_s : nullptr);
  options.checkpoint_every_batches = 8;
  options.checkpoint = TimedCheckpoint(
      [log, checkpointer](std::span<const uint64_t> keys) {
        FELIP_RETURN_IF_ERROR(log->Flush());
        return checkpointer->Checkpoint(keys);
      },
      trace ? &trace->checkpoint_s : nullptr);
  return options;
}

// --- ingest-olh: one node, 2 drain workers, PipelineSink, no persistence.
RoundResult RunIngestOlhRound(const Workload& w, const Inputs& in,
                              const RoundEnv& env) {
  RoundResult r;
  const Population& pop = in.populations[0];
  RoundProbe probe(env, 1);
  svc::TcpTransport tcp;
  std::optional<TracingTransport> traced_tcp;
  if (probe.traced()) traced_tcp.emplace(&tcp, probe.node(0));
  svc::Transport* ingest_transport =
      probe.traced() ? static_cast<svc::Transport*>(&*traced_tcp) : &tcp;

  const Clock::time_point setup_start = Clock::now();
  core::FelipPipeline pipeline(pop.dataset.attributes(), w.users, pop.config);
  const Clock::time_point planned = Clock::now();
  pipeline.BeginIngest();
  const Clock::time_point begun = Clock::now();
  svc::PipelineSink sink(&pipeline);
  std::optional<TimedSink> timed_sink;
  if (probe.traced()) timed_sink.emplace(&sink, &probe.node(0)->sink_s);
  svc::IngestServerOptions options;
  options.worker_threads = w.drain_workers;
  svc::IngestServer server(
      ingest_transport, kAnyPort,
      probe.traced() ? static_cast<svc::ReportSink*>(&*timed_sink) : &sink,
      options);
  svc::QueryServer query_server(&tcp, kAnyPort, &pipeline, kQueryOptions);
  if (!server.Start() || !query_server.Start()) {
    r.error = "could not bind 127.0.0.1";
    return r;
  }
  r.setup_s = SecondsBetween(setup_start, Clock::now());

  probe.BeginRound();
  std::vector<SenderLog> logs(w.senders);
  std::vector<std::thread> senders;
  for (unsigned t = 0; t < w.senders; ++t) {
    senders.emplace_back([&, t] {
      svc::IngestClient client(&tcp, server.endpoint());
      logs[t] = SendFrames(&client, Share(pop.frames, t, w.senders));
    });
  }
  const bool drained = server.WaitForReports(w.users, kWaitMs);
  const Clock::time_point drain_end = Clock::now();
  for (std::thread& t : senders) t.join();
  Clock::time_point last_ack = probe.start();
  MergeSenders(logs, &r, &last_ack);
  if (!drained && r.error.empty()) r.error = "timed out waiting for drain";
  if (!r.error.empty()) return r;
  sink.Finish();
  pipeline.Finalize();
  const Clock::time_point ready = Clock::now();
  probe.EndRound(ready, &r);
  r.ingest_s = SecondsBetween(probe.start(), drain_end);
  r.visible_s.push_back(SecondsBetween(last_ack, ready));
  r.reports = sink.accepted();
  r.batches = pop.frames.size();
  r.rejected_reports += sink.rejected();
  ScoreOverWire(&tcp, query_server.endpoint(), in, kScoringSends, &r);

  // Gates: exactly-once population, digest equal to in-process Collect.
  if (sink.accepted() != w.users || sink.rejected() != 0 ||
      server.batches_accepted() != pop.frames.size()) {
    r.error = "accepted reports differ from the population";
  } else if (core::GridFrequencyDigest(pipeline) != pop.reference_digest) {
    r.error = "grid-frequency digest differs from in-process Collect";
  }
  query_server.Stop();
  server.Stop();
  if (probe.traced()) {
    r.layers["grid.plan_s"] = SecondsBetween(setup_start, planned);
    r.layers["core.begin_ingest_s"] = SecondsBetween(planned, begun);
    const double rejected = static_cast<double>(server.batches_rejected());
    probe.FillLayers(
        in, &r,
        rejected / (rejected + static_cast<double>(server.batches_accepted())));
  }
  return r;
}

// --- sharded-durable: 2 shards (1 drain worker, report log, checkpoint
// every 8 batches) plus a root that pulls, merges and finalizes.
struct Shard {
  std::unique_ptr<core::FelipPipeline> pipeline;
  std::unique_ptr<svc::PipelineSink> sink;
  std::unique_ptr<TimedSink> timed_sink;
  std::unique_ptr<TracingTransport> transport;
  std::unique_ptr<replaylog::LogWriter> log;
  std::unique_ptr<snapshot::SnapshotStore> snapshots;
  std::unique_ptr<snapshot::Checkpointer> checkpointer;
  std::unique_ptr<svc::IngestServer> server;
  std::unique_ptr<dist::ShardAccumulatorServer> accum;
  uint64_t expected_reports = 0;
};

RoundResult RunShardedDurableRound(const Workload& w, const Inputs& in,
                                   const RoundEnv& env) {
  RoundResult r;
  const Population& pop = in.populations[0];
  // Nodes 0..shards-1 are shards; the last node traces the root's pulls.
  RoundProbe probe(env, w.shards + 1);
  svc::TcpTransport tcp;
  const dist::ShardRouter router(w.shards);

  const Clock::time_point setup_start = Clock::now();
  double plan_s = 0.0;
  double begin_s = 0.0;
  auto plan = [&] {
    const Clock::time_point start = Clock::now();
    auto pipeline = std::make_unique<core::FelipPipeline>(
        pop.dataset.attributes(), w.users, pop.config);
    plan_s += SecondsBetween(start, Clock::now());
    return pipeline;
  };
  std::vector<Shard> shards(w.shards);
  std::vector<std::string> ingest_endpoints;
  std::vector<std::string> accum_endpoints;
  core::FelipPipeline* first = nullptr;
  for (uint32_t s = 0; s < w.shards; ++s) {
    Shard& shard = shards[s];
    NodeTrace* trace = probe.node(s);
    shard.pipeline = plan();
    if (first == nullptr) first = shard.pipeline.get();
    const Clock::time_point begin_start = Clock::now();
    shard.pipeline->BeginIngest();
    begin_s += SecondsBetween(begin_start, Clock::now());
    shard.sink = std::make_unique<svc::PipelineSink>(shard.pipeline.get());
    svc::ReportSink* sink = shard.sink.get();
    svc::Transport* transport = &tcp;
    if (trace != nullptr) {
      shard.timed_sink = std::make_unique<TimedSink>(sink, &trace->sink_s);
      sink = shard.timed_sink.get();
      shard.transport = std::make_unique<TracingTransport>(&tcp, trace);
      transport = shard.transport.get();
    }
    const std::string dir = env.dir + "/shard" + std::to_string(s);
    StatusOr<replaylog::LogWriter> log = replaylog::LogWriter::Open(
        dir + "/log",
        replaylog::EncodePlan(shard.pipeline->config(),
                              shard.pipeline->num_users(),
                              shard.pipeline->schema()));
    if (!log.ok()) {
      r.error = "cannot open report log: " + log.status().ToString();
      return r;
    }
    shard.log = std::make_unique<replaylog::LogWriter>(*std::move(log));
    shard.snapshots =
        std::make_unique<snapshot::SnapshotStore>(dir + "/snapshots", 3);
    shard.checkpointer = std::make_unique<snapshot::Checkpointer>(
        shard.snapshots.get(), shard.pipeline.get());
    svc::IngestServerOptions options = DurableOptions(
        w.drain_workers, shard.log.get(), shard.checkpointer.get(), trace);
    options.owns_key = [&router, s](uint64_t key) {
      return router.OwnerShard(key) == s;
    };
    shard.server = std::make_unique<svc::IngestServer>(transport, kAnyPort,
                                                       sink, options);
    dist::ShardAccumulatorOptions accum_options;
    accum_options.shard_id = s;
    accum_options.num_shards = w.shards;
    accum_options.plan_digest = dist::PlanDigest(*shard.pipeline);
    shard.accum = std::make_unique<dist::ShardAccumulatorServer>(
        &tcp, kAnyPort, shard.sink.get(), accum_options);
    if (!shard.server->Start() || !shard.accum->Start()) {
      r.error = "could not bind 127.0.0.1";
      return r;
    }
    ingest_endpoints.push_back(shard.server->endpoint());
    accum_endpoints.push_back(shard.accum->endpoint());
  }
  for (size_t i = 0; i < pop.frames.size(); ++i) {
    const uint64_t key = svc::ChecksumTrailer(pop.frames[i]).value_or(0);
    shards[router.OwnerShard(key)].expected_reports += pop.frame_reports[i];
  }
  std::unique_ptr<core::FelipPipeline> root_pipeline = plan();
  std::optional<TracingTransport> root_tcp;
  if (probe.traced()) root_tcp.emplace(&tcp, probe.node(w.shards));
  dist::RootAggregatorOptions root_options;
  root_options.expected_reports = w.users;
  root_options.plan_digest = dist::PlanDigest(*first);
  dist::RootAggregator root(
      probe.traced() ? static_cast<svc::Transport*>(&*root_tcp) : &tcp,
      accum_endpoints, root_options);
  svc::QueryServer query_server(&tcp, kAnyPort, root_pipeline.get(),
                                kQueryOptions);
  if (!query_server.Start()) {
    r.error = "could not bind 127.0.0.1";
    return r;
  }
  r.setup_s = SecondsBetween(setup_start, Clock::now());

  probe.BeginRound();
  std::vector<SenderLog> logs(w.senders);
  std::vector<uint64_t> routed(w.shards, 0);
  std::mutex routed_mutex;
  std::vector<std::thread> senders;
  for (unsigned t = 0; t < w.senders; ++t) {
    senders.emplace_back([&, t] {
      dist::ShardedIngestClient client(&tcp, ingest_endpoints);
      logs[t] = SendFrames(&client, Share(pop.frames, t, w.senders));
      std::lock_guard<std::mutex> lock(routed_mutex);
      for (uint32_t s = 0; s < w.shards; ++s) {
        routed[s] += client.batches_routed(s);
      }
    });
  }
  bool drained = true;
  for (Shard& shard : shards) {
    drained = shard.server->WaitForReports(shard.expected_reports, kWaitMs) &&
              drained;
  }
  const Clock::time_point drain_end = Clock::now();
  for (std::thread& t : senders) t.join();
  Clock::time_point last_ack = probe.start();
  MergeSenders(logs, &r, &last_ack);
  if (!drained && r.error.empty()) r.error = "timed out waiting for drain";
  if (!r.error.empty()) return r;
  const Clock::time_point pull_start = Clock::now();
  Status status = root.PullUntilComplete(kWaitMs);
  const Clock::time_point merge_start = Clock::now();
  if (status.ok()) status = root.MergeInto(root_pipeline.get());
  const Clock::time_point merge_end = Clock::now();
  if (!status.ok()) {
    r.error = "root pull/merge failed: " + status.ToString();
    return r;
  }
  root_pipeline->Finalize();
  const Clock::time_point ready = Clock::now();
  probe.EndRound(ready, &r);
  r.ingest_s = SecondsBetween(probe.start(), drain_end);
  r.visible_s.push_back(SecondsBetween(last_ack, ready));
  r.reports = root_pipeline->reports_ingested();
  r.batches = pop.frames.size();
  ScoreOverWire(&tcp, query_server.endpoint(), in, kScoringSends, &r);
  query_server.Stop();

  // Teardown: a final checkpoint fires in Stop(); the log seals after.
  uint64_t accepted = 0;
  uint64_t batches_accepted = 0;
  double rejected_batches = 0.0;
  double seal_s = 0.0;
  uint64_t log_bytes = 0;
  uint64_t snapshot_bytes = 0;
  size_t snapshot_files = 0;
  for (Shard& shard : shards) {
    shard.server->Stop();
    shard.accum->Stop();
    const Clock::time_point seal_start = Clock::now();
    const Status sealed = shard.log->Seal();
    seal_s += SecondsBetween(seal_start, Clock::now());
    if (!sealed.ok() && r.error.empty()) {
      r.error = "report log seal failed: " + sealed.ToString();
    }
    accepted += shard.sink->accepted();
    r.rejected_reports += shard.sink->rejected();
    batches_accepted += shard.server->batches_accepted();
    rejected_batches += static_cast<double>(shard.server->batches_rejected());
    log_bytes += shard.log->bytes_appended();
    const std::vector<std::string> files = shard.snapshots->ListNewestFirst();
    snapshot_bytes += FileBytes(files);
    snapshot_files += files.size();
    // Gate: the last checkpoint recovers and holds every drained report.
    const StatusOr<snapshot::Recovered> recovered =
        snapshot::RecoverFromStore(*shard.snapshots);
    if (r.error.empty() &&
        (!recovered.ok() ||
         recovered->state.pipeline.reports_ingested() !=
             shard.sink->accepted() ||
         shard.server->checkpoint_failures() != 0 ||
         shard.server->log_failures() != 0)) {
      r.error = "last checkpoint does not recover the shard's reports";
    }
  }
  if (r.error.empty()) {
    if (accepted != w.users || r.reports != w.users ||
        batches_accepted != pop.frames.size()) {
      r.error = "accepted reports differ from the population";
    } else if (core::GridFrequencyDigest(*root_pipeline) !=
               pop.reference_digest) {
      r.error = "root-merged digest differs from in-process Collect";
    }
  }
  if (probe.traced()) {
    auto& L = r.layers;
    L["grid.plan_s"] = plan_s;
    L["core.begin_ingest_s"] = begin_s;
    double most = 0.0;
    for (uint64_t n : routed) most = std::max(most, static_cast<double>(n));
    L["dist.route_skew"] = most * w.shards / static_cast<double>(r.batches);
    L["dist.pull_s"] = SecondsBetween(pull_start, merge_start);
    L["dist.merge_s"] = SecondsBetween(merge_start, merge_end);
    L["dist.frame_bytes"] =
        Mean(probe.nodes()[w.shards]->received_bytes.values());
    std::vector<double> append_us;
    std::vector<double> checkpoint_ms;
    for (uint32_t s = 0; s < w.shards; ++s) {
      for (double v : probe.nodes()[s]->log_s.values()) {
        append_us.push_back(v * 1e6);
      }
      for (double v : probe.nodes()[s]->checkpoint_s.values()) {
        checkpoint_ms.push_back(v * 1e3);
      }
    }
    L["replaylog.append_us_p50"] = Quantile(append_us, 0.50);
    L["replaylog.append_us_p99"] = Quantile(append_us, 0.99);
    L["replaylog.bytes_per_report"] =
        static_cast<double>(log_bytes) / static_cast<double>(w.users);
    L["replaylog.seal_s"] = seal_s;
    L["snapshot.checkpoint_ms_p50"] = Quantile(checkpoint_ms, 0.50);
    L["snapshot.checkpoint_ms_p99"] = Quantile(checkpoint_ms, 0.99);
    L["snapshot.checkpoints"] = static_cast<double>(checkpoint_ms.size());
    L["snapshot.bytes_per_checkpoint"] =
        snapshot_files > 0 ? static_cast<double>(snapshot_bytes) /
                                 static_cast<double>(snapshot_files)
                           : 0.0;
    probe.FillLayers(
        in, &r,
        rejected_batches /
            (rejected_batches + static_cast<double>(batches_accepted)));
  }
  return r;
}

// --- epoch-queries: count-triggered rotation (8 epochs), sealed segments
// on disk, window 4; one ingest and one query connection.
RoundResult RunEpochQueriesRound(const Workload& w, const Inputs& in,
                                 const RoundEnv& env,
                                 const std::vector<query::Query>& pool) {
  RoundResult r;
  RoundProbe probe(env, 1);
  NodeTrace* trace = probe.node(0);
  svc::TcpTransport tcp;
  std::optional<TracingTransport> traced_tcp;
  if (trace != nullptr) traced_tcp.emplace(&tcp, trace);
  const uint64_t epoch_users = w.epoch_users();

  const Clock::time_point setup_start = Clock::now();
  stream::EpochStore store(env.dir + "/epochs", kWindow);
  stream::EpochSet epochs(kWindow);
  stream::EpochRotationService rotation(&store, &epochs);
  auto open = std::make_unique<core::FelipPipeline>(
      in.populations[0].dataset.attributes(), epoch_users,
      in.populations[0].config);
  const Clock::time_point planned = Clock::now();
  open->BeginIngest();
  const Clock::time_point begun = Clock::now();
  svc::PipelineSink sink(open.get());
  std::optional<TimedSink> timed_sink;
  if (trace != nullptr) timed_sink.emplace(&sink, &trace->sink_s);

  // The rotation cut, as in felip_server's epoch mode; it runs under the
  // drain lock. The bench records when each epoch became visible, its
  // digest and report count for the gates.
  std::mutex seal_mutex;
  std::condition_variable sealed_cv;
  std::vector<Clock::time_point> sealed_at;
  std::vector<double> seal_s;
  std::vector<uint64_t> sealed_digest;
  std::vector<uint64_t> sealed_reports;
  std::string seal_error;
  const auto rotate = [&](std::span<const uint64_t> drained_keys) {
    const Clock::time_point start = Clock::now();
    auto next = std::make_unique<core::FelipPipeline>(
        open->schema(), epoch_users,
        stream::EpochConfig(in.base_config, rotation.open_epoch_index() + 1));
    sink.SwapPipeline(next.get());
    std::unique_ptr<core::FelipPipeline> prev = std::move(open);
    open = std::move(next);
    prev->FinishIngest();
    prev->Finalize();
    const uint64_t reports = prev->reports_ingested();
    const uint64_t digest = core::GridFrequencyDigest(*prev);
    const StatusOr<std::string> sealed =
        rotation.SealEpoch(std::move(prev), drained_keys);
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(seal_mutex);
    sealed_at.push_back(end);
    seal_s.push_back(SecondsBetween(start, end));
    sealed_digest.push_back(digest);
    sealed_reports.push_back(reports);
    if (!sealed.ok()) seal_error = sealed.status().ToString();
    sealed_cv.notify_all();
  };
  svc::IngestServerOptions options;
  options.worker_threads = w.drain_workers;
  options.after_drain = TimedHook(
      [&](std::span<const uint64_t> keys) {
        if (open->reports_ingested() >= epoch_users) rotate(keys);
      },
      trace);
  svc::IngestServer server(
      trace != nullptr ? static_cast<svc::Transport*>(&*traced_tcp) : &tcp,
      kAnyPort,
      trace != nullptr ? static_cast<svc::ReportSink*>(&*timed_sink) : &sink,
      options);
  svc::QueryServer query_server(&tcp, kAnyPort, /*pipeline=*/nullptr,
                                kQueryOptions, &epochs);
  if (!server.Start() || !query_server.Start()) {
    r.error = "could not bind 127.0.0.1";
    return r;
  }
  r.setup_s = SecondsBetween(setup_start, Clock::now());

  // Frames in epoch order; remember where each epoch ends.
  std::vector<const std::vector<uint8_t>*> frames;
  std::vector<size_t> epoch_last_frame;
  for (const Population& pop : in.populations) {
    for (const auto& frame : pop.frames) frames.push_back(&frame);
    epoch_last_frame.push_back(frames.size() - 1);
  }

  probe.BeginRound();
  SenderLog log;
  std::thread sender([&] {
    svc::IngestClient client(&tcp, server.endpoint());
    log = SendFrames(&client, frames);
  });
  // The query connection starts at the first seal and runs alongside
  // ingest: batches of 256 distinct queries, plain and windowed in turn.
  std::atomic<bool> ingest_done{false};
  std::vector<double> query_s;
  OpCounts query_ops;
  size_t queries_sent = 0;
  double query_wall = 0.0;
  std::thread querier([&] {
    {
      std::unique_lock<std::mutex> lock(seal_mutex);
      sealed_cv.wait(lock, [&] {
        return !sealed_at.empty() || ingest_done.load();
      });
    }
    svc::QueryClient client(&tcp, query_server.endpoint());
    const Clock::time_point start = Clock::now();
    bool windowed = false;
    while (!ingest_done.load() && queries_sent + kQueryBatch <= pool.size()) {
      const std::vector<query::Query> batch(
          pool.begin() + static_cast<ptrdiff_t>(queries_sent),
          pool.begin() + static_cast<ptrdiff_t>(queries_sent + kQueryBatch));
      const Clock::time_point sent = Clock::now();
      const svc::QueryOutcome outcome =
          windowed ? client.AnswerWindowed(batch, kWindow, kDecay)
                   : client.AnswerQueries(batch);
      query_s.push_back(SecondsBetween(sent, Clock::now()));
      query_ops.Record(outcome.attempts, outcome.ok());
      queries_sent += kQueryBatch;
      windowed = !windowed;
    }
    query_wall = SecondsBetween(start, Clock::now());
  });
  // The count trigger seals the last epoch inside the drain of its last
  // batch, so the population is fully drained only once it is sealed.
  const bool drained = server.WaitForReports(w.users, kWaitMs);
  const Clock::time_point drain_end = Clock::now();
  ingest_done.store(true);
  {
    std::lock_guard<std::mutex> lock(seal_mutex);
    sealed_cv.notify_all();
  }
  sender.join();
  querier.join();
  r.ack_s = log.ack_s;
  r.ops = log.ops;
  r.ops.Add(query_ops);
  r.rejected_reports = sink.rejected();
  if (query_ops.failed_ops != 0) r.error = "a query batch failed";
  if (!log.delivered) r.error = "batch delivery failed after retries";
  if (!drained && r.error.empty()) r.error = "timed out waiting for drain";
  if (queries_sent + kQueryBatch > pool.size() && r.error.empty()) {
    r.error = "query pool exhausted before ingest finished";
  }
  if (sealed_at.size() != w.epochs && r.error.empty()) {
    r.error = "sealed " + std::to_string(sealed_at.size()) + " of " +
              std::to_string(w.epochs) + " epochs";
  }
  if (!r.error.empty()) return r;
  probe.EndRound(sealed_at.back(), &r);
  r.ingest_s = SecondsBetween(probe.start(), drain_end);
  r.reports = sink.accepted();
  r.batches = frames.size();
  r.query_s = query_s;
  r.queries = queries_sent;
  r.query_wall_s = query_wall;
  for (size_t e = 0; e < w.epochs; ++e) {
    r.visible_s.push_back(
        SecondsBetween(log.acked_at[epoch_last_frame[e]], sealed_at[e]));
  }

  // Gates: every epoch sealed exactly its population with the digest of
  // in-process Collect; served answers equal in-process answers.
  for (size_t e = 0; e < w.epochs && r.error.empty(); ++e) {
    if (sealed_reports[e] != epoch_users) {
      r.error = "epoch " + std::to_string(e + 1) + " sealed " +
                std::to_string(sealed_reports[e]) + " reports";
    } else if (sealed_digest[e] != in.populations[e].reference_digest) {
      r.error = "epoch " + std::to_string(e + 1) +
                " digest differs from in-process Collect";
    }
  }
  if (r.error.empty() && !seal_error.empty()) {
    r.error = "segment write failed: " + seal_error;
  }
  if (r.error.empty() &&
      (sink.accepted() != w.users || sink.rejected() != 0)) {
    r.error = "accepted reports differ from the population";
  }
  // Scoring after the round: plain answers come from the newest epoch.
  RoundResult scoring;
  ScoreOverWire(&tcp, query_server.endpoint(), in, 1, &scoring);
  r.ops.Add(scoring.ops);
  if (r.error.empty()) r.error = scoring.error;
  if (r.error.empty()) {
    const std::vector<query::Query> batch(
        pool.begin(), pool.begin() + static_cast<ptrdiff_t>(kQueryBatch));
    svc::QueryClient client(&tcp, query_server.endpoint());
    const svc::QueryOutcome served =
        client.AnswerWindowed(batch, kWindow, kDecay);
    const StatusOr<std::vector<double>> local =
        epochs.AnswerWindowed(batch, kWindow, kDecay);
    if (!served.ok() || !local.ok() || !SameBits(served.answers, *local)) {
      r.error = "served windowed answers differ from in-process answers";
    }
  }
  query_server.Stop();
  server.Stop();

  if (probe.traced()) {
    auto& L = r.layers;
    L["grid.plan_s"] = SecondsBetween(setup_start, planned);
    L["core.begin_ingest_s"] = SecondsBetween(planned, begun);
    L["stream.seal_ms_p50"] = Quantile(seal_s, 0.5) * 1e3;
    L["stream.seal_ms_max"] = Quantile(seal_s, 1.0) * 1e3;
    const std::vector<std::string> segments = store.ListOldestFirst();
    L["stream.segment_bytes"] =
        segments.empty() ? 0.0
                         : static_cast<double>(FileBytes(segments)) /
                               static_cast<double>(segments.size());
    // Answer-engine cost per λ, in process on the newest epoch's
    // reference (bit-identical to the sealed epoch by the digest gate).
    const char* names[] = {"core.answer_us_per_query_l2",
                           "core.answer_us_per_query_l3",
                           "core.answer_us_per_query_l4"};
    for (int d = 0; d < 3; ++d) {
      const Clock::time_point start = Clock::now();
      const std::vector<double> answers =
          in.reference->AnswerQueries(in.lambda_slices[d]);
      L[names[d]] = SecondsBetween(start, Clock::now()) * 1e6 /
                    static_cast<double>(answers.size());
    }
    const std::span<const query::Query> mixed(
        pool.data(), std::min<size_t>(pool.size(), 2048));
    const Clock::time_point start = Clock::now();
    const StatusOr<std::vector<double>> windowed =
        epochs.AnswerWindowed(mixed, kWindow, kDecay);
    L["stream.window_us_per_query"] = SecondsBetween(start, Clock::now()) *
                                      1e6 / static_cast<double>(mixed.size());
    const double rejected = static_cast<double>(server.batches_rejected());
    probe.FillLayers(
        in, &r,
        rejected / (rejected + static_cast<double>(server.batches_accepted())));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Run: rounds until --seconds, then medians.

// The half of `rounds` (at least 3 when there are) with the least host
// CPU steal, in run order among equals.
std::vector<const RoundResult*> LeastStolen(
    const std::vector<RoundResult>& rounds) {
  std::vector<const RoundResult*> order;
  for (const RoundResult& r : rounds) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const RoundResult* a, const RoundResult* b) {
                     return a->steal_share < b->steal_share;
                   });
  order.resize(std::min(order.size(),
                        std::max<size_t>(3, (order.size() + 1) / 2)));
  return order;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every round of one run, split by whether it was traced.
struct RunRounds {
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  std::string error;  // the first failed gate, if any
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Runs fresh rounds until `seconds` have passed (at least three of each
// kind); a traced run alternates untraced and traced rounds.
RunRounds RunUntil(const Workload& w, const Inputs& in, uint64_t seed,
                   double seconds, bool trace, const std::string& scratch) {
  RunRounds run;
  SeenQueries seen_queries;
  for (const query::Query& q : in.scoring) seen_queries.Insert(q);
  Rng pool_rng(seed ^ 0x9001);
  size_t pool_size = w.query_pool;
  std::vector<std::vector<uint8_t>> device_frames;
  const double slice_reports =
      static_cast<double>(in.device_slice->num_rows());
  const Clock::time_point start = Clock::now();
  for (size_t round = 0;; ++round) {
    RoundEnv env;
    env.traced = trace && round % 2 == 1;
    env.dir = scratch + "/round" + std::to_string(round);
    std::filesystem::remove_all(env.dir);
    std::filesystem::create_directories(env.dir);
    ResetPeakRss();
    const HostCpu host_before = ReadHostCpu();
    RoundResult r;
    if (w.kind == Kind::kIngestOlh) {
      r = RunIngestOlhRound(w, in, env);
    } else if (w.kind == Kind::kShardedDurable) {
      r = RunShardedDurableRound(w, in, env);
    } else {
      const std::vector<query::Query> pool = MixedQueries(
          in.populations.back().dataset, pool_size, pool_rng, &seen_queries);
      r = RunEpochQueriesRound(w, in, env, pool);
      // The next round's pool: three times what this round used.
      pool_size = std::max(kMinQueryPool, 3 * static_cast<size_t>(r.queries));
    }
    r.steal_share = StealShare(host_before, ReadHostCpu());
    r.peak_rss_mb = PeakRssMb();
    std::filesystem::remove_all(env.dir);
    device_frames.clear();
    r.device = RunDevices(*in.populations[0].devices, *in.device_slice,
                          &device_frames, nullptr);
    if (env.traced) {
      r.layers["core.answer_mae"] = in.answer_mae;
      r.layers["wire.encode_ns_per_report"] =
          r.device.encode_s * 1e9 / slice_reports;
      r.layers["svc.simulate_ns_per_report"] =
          r.device.simulate_s * 1e9 / slice_reports;
    }
    run.attempted += r.ops.ops;
    run.failed += r.ops.failed_ops + r.rejected_reports;
    if (!r.error.empty()) {
      run.error = "round " + std::to_string(round) + ": " + r.error;
      return run;
    }
    std::fprintf(stderr, "round %zu%s: setup %.4f s, round %.4f s, "
                 "steal %.3f, peak %.1f MB\n", round,
                 env.traced ? " (traced)" : "", r.setup_s, r.round_s,
                 r.steal_share, r.peak_rss_mb);
    (env.traced ? run.traced : run.untraced).push_back(std::move(r));
    const bool enough = run.untraced.size() >= 3 &&
                        (!trace || run.traced.size() >= 3);
    if (enough && SecondsBetween(start, Clock::now()) >= seconds) return run;
  }
}

template <typename Field>
double MedianOf(const std::vector<const RoundResult*>& rounds, Field field) {
  std::vector<double> values;
  for (const RoundResult* r : rounds) values.push_back(field(*r));
  return Median(std::move(values));
}

// End-to-end metrics: medians over rounds. Latency percentiles are taken
// per round first, so one disturbed round cannot set a run's tail.
std::map<std::string, double> EndToEnd(
    const Inputs& in, const std::vector<const RoundResult*>& kept) {
  const double slice_reports =
      static_cast<double>(in.device_slice->num_rows());
  std::map<std::string, double> m;
  m["setup_s"] = MedianOf(kept, [](auto& r) { return r.setup_s; });
  m["round_s"] = MedianOf(kept, [](auto& r) { return r.round_s; });
  m["ingest_reports_per_s"] = MedianOf(kept, [](auto& r) {
    return static_cast<double>(r.reports) / r.ingest_s;
  });
  m["cpu_us_per_report"] = MedianOf(kept, [](auto& r) {
    return r.cpu_s * 1e6 / static_cast<double>(r.reports);
  });
  m["ack_p50_ms"] =
      MedianOf(kept, [](auto& r) { return Quantile(r.ack_s, 0.50) * 1e3; });
  m["ack_p99_ms"] =
      MedianOf(kept, [](auto& r) { return Quantile(r.ack_s, 0.99) * 1e3; });
  m["device_us_per_report"] = MedianOf(kept, [&](auto& r) {
    return (r.device.simulate_s + r.device.encode_s) * 1e6 / slice_reports;
  });
  m["query_p50_ms"] =
      MedianOf(kept, [](auto& r) { return Quantile(r.query_s, 0.50) * 1e3; });
  m["query_p99_ms"] =
      MedianOf(kept, [](auto& r) { return Quantile(r.query_s, 0.99) * 1e3; });
  m["queries_per_s"] = MedianOf(kept, [](auto& r) {
    return static_cast<double>(r.queries) / r.query_wall_s;
  });
  m["epoch_visible_ms"] =
      MedianOf(kept, [](auto& r) { return Median(r.visible_s) * 1e3; });
  m["peak_rss_mb"] = MedianOf(kept, [](auto& r) { return r.peak_rss_mb; });
  return m;
}

// Per-layer metrics: medians over the traced rounds, plus what tracing
// cost against the untraced rounds of the same run.
std::map<std::string, double> PerLayer(
    const std::vector<const RoundResult*>& traced,
    const std::vector<const RoundResult*>& untraced) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) {
    m[def.name] = MedianOf(traced, [&](const RoundResult& r) {
      const auto it = r.layers.find(def.name);
      return it == r.layers.end() ? 0.0 : it->second;
    });
  }
  m["obs.trace_overhead_ratio"] =
      MedianOf(traced, [](auto& r) { return r.round_s; }) /
      MedianOf(untraced, [](auto& r) { return r.round_s; });
  return m;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload_name = flags.GetString("workload", "");
  const uint64_t seed = flags.GetUint("seed", 1);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetUint("trace", 0) != 0;
  const double scale = flags.GetDouble("scale", 1.0);
  const std::string scratch = flags.GetString("scratch", "");
  const std::string git_sha = flags.GetString("git-sha", "unknown");
  const std::string source_digest =
      flags.GetString("source-digest", "unknown");
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  if (scratch.empty() || !(seconds > 0) || !(scale > 0 && scale <= 1)) {
    std::fprintf(stderr,
                 "error: need --scratch, --seconds > 0, 0 < --scale <= 1\n");
    return 2;
  }
  const std::optional<Workload> parsed = MakeWorkload(workload_name, scale);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "error: --workload must be ingest-olh, sharded-durable or "
                 "epoch-queries (and --scale must leave >= 1000 users per "
                 "epoch)\n");
    return 2;
  }
  const Workload& w = *parsed;

  const Clock::time_point inputs_start = Clock::now();
  const Inputs in = MakeInputs(w, seed);
  // Hand the input generator's freed heap back to the kernel, so every
  // run's rounds start from the same resident baseline (which thread
  // arenas keep freed chunks otherwise varies from run to run).
  malloc_trim(0);
  std::fprintf(stderr, "inputs: %llu reports, generated in %.2f s\n",
               static_cast<unsigned long long>(in.reports),
               SecondsBetween(inputs_start, Clock::now()));

  const HostCpu host_start = ReadHostCpu();
  const RunRounds run = RunUntil(w, in, seed, seconds, trace, scratch);
  const double steal_share = StealShare(host_start, ReadHostCpu());
  // Medians are taken over the half of the rounds during which the
  // hypervisor stole the least host CPU: on a shared machine a run's
  // figures then follow the program, not how busy its neighbours were.
  const std::vector<const RoundResult*> kept_untraced =
      LeastStolen(run.untraced);
  const std::vector<const RoundResult*> kept_traced = LeastStolen(run.traced);
  std::vector<double> kept_steal;
  for (const auto* kept : {&kept_untraced, &kept_traced}) {
    for (const RoundResult* r : *kept) kept_steal.push_back(r->steal_share);
  }
  std::string error = run.error;
  if (error.empty() && (run.untraced.empty() || (trace && run.traced.empty())))
    error = "no round completed";
  std::map<std::string, double> metrics;
  if (error.empty()) {
    metrics = trace ? PerLayer(kept_traced, kept_untraced)
                    : EndToEnd(in, kept_untraced);
  }

  // Provenance and a readable table, then the result line.
  std::printf(
      "provenance: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"git_sha\": %s, \"source_digest\": %s, \"nproc\": %u, "
      "\"compiler\": %s, \"build_type\": %s, \"simd\": %s, "
      "\"users\": %llu, \"epochs\": %llu, \"ingest_nodes\": %u, "
      "\"drain_workers_per_node\": %u, \"sender_connections\": %u, "
      "\"ingest_sockets\": %u, \"query_connections\": 1, "
      "\"rounds_untraced\": %zu, \"rounds_traced\": %zu, "
      "\"rounds_kept\": %zu, \"cpu_steal_share\": %.4f, "
      "\"kept_steal_share\": %.4f, \"clock\": \"wall (steady_clock)\"}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(seed),
      trace ? 1 : 0, JsonString(git_sha).c_str(),
      JsonString(source_digest).c_str(), std::thread::hardware_concurrency(),
      JsonString(FELIP_BENCH_COMPILER).c_str(),
      JsonString(FELIP_BENCH_BUILD_TYPE).c_str(),
      JsonString(simd::LevelName(simd::ActiveLevel())).c_str(),
      static_cast<unsigned long long>(w.users),
      static_cast<unsigned long long>(w.epochs), w.shards, w.drain_workers,
      w.senders, w.senders * w.shards, run.untraced.size(),
      run.traced.size(), kept_steal.size(), steal_share, Mean(kept_steal));
  if (!error.empty()) std::fprintf(stderr, "GATE FAILED: %s\n", error.c_str());
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  std::string json = "{\"correct\": ";
  json += error.empty() ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(run.attempted, 1));
  json += ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (size_t i = 0; error.empty() && i < defs.size(); ++i) {
    const MetricDef& def = defs[i];
    std::fprintf(stderr, "  %-34s %16.6g %s\n", def.name, metrics[def.name],
                 def.unit);
    json += std::string(i == 0 ? "" : ", ") + JsonString(def.name) +
            ": {\"value\": " + JsonNumber(metrics[def.name]) +
            ", \"unit\": " + JsonString(def.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace felip::perfbench

int main(int argc, char** argv) { return felip::perfbench::Main(argc, argv); }
