// felip_server — host a FELIP ingest endpoint over TCP.
//
// Plans a pipeline for the shared synthetic schema, listens for perturbed
// report batches from felip_client, drains them through the bounded queue
// into the sharded aggregators, and finalizes once the expected population
// has reported. Both tools must be launched with the same --users,
// --attributes, --num-domain, --cat-domain, --epsilon, --strategy, and
// --seed so that planner and devices agree on the grid layout.
//
// Example (two shells):
//   felip_server --port=7071 --users=50000
//   felip_client --endpoint=127.0.0.1:7071 --users=50000
//
// Distributed topology (docs/distributed.md): each shard serves its
// consistent-hash partition with --shard-id/--num-shards and exposes an
// accumulator endpoint on --accum-port; one more felip_server run with
// --root=<accum-ep,...> pulls and merges the shards, then finalizes —
// bit-identical to the single-node round:
//   felip_server --port=7071 --accum-port=7171 --shard-id=0 --num-shards=2
//   felip_server --port=7072 --accum-port=7172 --shard-id=1 --num-shards=2
//   felip_client --endpoint=127.0.0.1:7071,127.0.0.1:7072
//   felip_server --root=127.0.0.1:7171,127.0.0.1:7172

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "felip/common/flags.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/dist/accumulator.h"
#include "felip/dist/partition.h"
#include "felip/dist/root.h"
#include "felip/fo/registry.h"
#include "felip/obs/metrics.h"
#include "felip/post/norm_sub.h"
#include "felip/replaylog/replay.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/checkpoint.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/epoch_store.h"
#include "felip/stream/streaming.h"
#include "felip/svc/query_service.h"
#include "felip/svc/server.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"

namespace {

using namespace felip;

void PrintUsage() {
  std::printf(
      "felip_server — FELIP report-ingest endpoint (TCP)\n\n"
      "  --port=<int>            listen port, 0 picks one (default 7071)\n"
      "  --host=<addr>           bind address (default 127.0.0.1)\n"
      "  --users=<int>           expected population size (default 100000)\n"
      "  --attributes=<int>      schema attribute count (default 6)\n"
      "  --num-domain=<int>      numerical domain (default 100)\n"
      "  --cat-domain=<int>      categorical domain (default 8)\n"
      "  --epsilon=<float>       privacy budget (default 1.0)\n"
      "  --strategy=oug|ohg      grid strategy (default ohg)\n"
      "  --protocols=<p,p,...>   AFO candidate protocols from\n"
      "                          grr,olh,oue,pgr,fldp (default grr,olh)\n"
      "  --report-budget-bytes=<int>  per-report wire budget AFO plans\n"
      "                          under (default 0 = unconstrained)\n"
      "  --seed=<int>            planning seed (default 1)\n"
      "  --workers=<int>         queue drain threads (default 2)\n"
      "  --queue-capacity=<int>  batches buffered before backpressure "
      "(default 64)\n"
      "  --timeout-ms=<int>      max wait for the population (default "
      "60000)\n"
      "  --serve-queries         serve query batches after finalizing\n"
      "  --query-port=<int>      query listen port, 0 picks one (default "
      "0)\n"
      "  --query-batches=<int>   batches to answer before exiting (default "
      "1)\n"
      "  --query-timeout-ms=<int>  max wait for query batches (default "
      "60000)\n"
      "  --snapshot-dir=<path>   checkpoint/recover pipeline state here\n"
      "  --snapshot-interval=<int>  checkpoint every N drained batches "
      "(default 8)\n"
      "  --snapshot-interval-ms=<int>  also checkpoint every T ms (default "
      "0 = off)\n"
      "  --snapshot-keep=<int>   snapshots retained in rotation (default "
      "3)\n"
      "  --report-log-dir=<path>  append every drained batch to a replay "
      "log here\n"
      "  --report-log-segment-mb=<int>  rotate log segments at this size "
      "(default 64)\n"
      "  --report-log-keep=<int>  sealed segments retained, 0 = all "
      "(default 0)\n"
      "  --normalization=sub|mul|cut  negativity-removal variant (default "
      "sub)\n"
      "  --metrics               dump observability metrics to stderr\n"
      "\nEpoch rotation (see docs/continual.md):\n"
      "  --epoch-dir=<path>      enable epoch mode; sealed segments land "
      "here\n"
      "  --epoch-users=<int>     reports per epoch; also the count-rotation\n"
      "                          trigger when no interval is set (default "
      "--users)\n"
      "  --epoch-interval-ms=<int>  clock-driven rotation period (0 = "
      "rotate\n"
      "                          when an epoch reaches --epoch-users)\n"
      "  --epoch-keep=<int>      sealed epochs retained on disk and served "
      "(default 8)\n"
      "  --epochs=<int>          epochs to seal before exiting (default 4)\n"
      "  --epoch-inspect         print the sealed segments in --epoch-dir "
      "and exit\n"
      "\nDistributed topology (see docs/distributed.md):\n"
      "  --num-shards=<int>      total shards in the topology (default 1)\n"
      "  --shard-id=<int>        this server's shard, in [0, num-shards)\n"
      "  --accum-port=<int>      shard accumulator port, 0 picks one "
      "(default 0)\n"
      "  --root=<ep,ep,...>      run as the root aggregator pulling from\n"
      "                          these shard accumulator endpoints\n");
}

// Prints attribute 0's marginal head (%.17g round-trips doubles exactly)
// plus an xxHash64 digest over every exported grid frequency — the
// fingerprint the CI soaks compare across runs bit for bit.
void PrintEstimateFingerprint(const core::FelipPipeline& pipeline) {
  const std::vector<double> marginal = pipeline.EstimateMarginal(0);
  const size_t head = marginal.size() < 8 ? marginal.size() : 8;
  std::printf("attr0 marginal head:");
  for (size_t v = 0; v < head; ++v) std::printf(" %.17g", marginal[v]);
  std::printf("\n");
  std::printf("grid frequencies xxh64=%016llx\n",
              static_cast<unsigned long long>(
                  core::GridFrequencyDigest(pipeline)));
}

// Answers `query_batches` batches on host:query_port; 0 on success.
int ServeQueries(svc::TcpTransport* transport, const std::string& host,
                 uint64_t query_port, core::FelipPipeline* pipeline,
                 uint64_t query_batches, int query_timeout_ms) {
  svc::QueryServer query_server(
      transport, host + ":" + std::to_string(query_port), pipeline);
  if (!query_server.Start()) {
    std::fprintf(stderr, "error: could not bind query endpoint %s:%llu\n",
                 host.c_str(), static_cast<unsigned long long>(query_port));
    return 1;
  }
  std::printf("serving queries on %s\n", query_server.endpoint().c_str());
  std::fflush(stdout);
  const bool served =
      query_server.WaitForBatches(query_batches, query_timeout_ms);
  query_server.Stop();
  std::printf(
      "query batches answered=%llu queries=%llu invalid=%llu "
      "malformed=%llu\n",
      static_cast<unsigned long long>(query_server.batches_answered()),
      static_cast<unsigned long long>(query_server.queries_answered()),
      static_cast<unsigned long long>(query_server.batches_invalid()),
      static_cast<unsigned long long>(query_server.batches_malformed()));
  if (!served) {
    std::fprintf(stderr, "error: timed out waiting for query batches\n");
    return 1;
  }
  return 0;
}

// Offline view of a segment directory: one line per sealed epoch with the
// same reports/xxh64 fingerprint the live server prints at seal time, so
// a soak can diff "what the server said it sealed" against "what a cold
// reader recovers from disk" bit for bit.
int InspectEpochs(const std::string& epoch_dir, uint64_t epoch_keep) {
  stream::EpochStore store(epoch_dir, static_cast<size_t>(epoch_keep));
  const stream::LoadedEpochs loaded = store.LoadAll();
  for (const snapshot::RecoveredPipeline& epoch : loaded.epochs) {
    std::printf("epoch %llu sealed: reports=%llu epsilon=%.17g "
                "xxh64=%016llx dedup_keys=%zu\n",
                static_cast<unsigned long long>(epoch.epoch_seq),
                static_cast<unsigned long long>(
                    epoch.pipeline.reports_ingested()),
                epoch.pipeline.config().epsilon,
                static_cast<unsigned long long>(
                    core::GridFrequencyDigest(epoch.pipeline)),
                epoch.dedup_keys.size());
  }
  std::printf("segments=%zu skipped=%zu next_seq=%llu\n",
              loaded.epochs.size(), loaded.files_skipped,
              static_cast<unsigned long long>(store.next_seq()));
  return loaded.files_skipped == 0 ? 0 : 1;
}

// Everything the epoch-rotated server needs beyond the planning config.
struct EpochModeParams {
  std::string host;
  uint64_t port = 7071;
  unsigned workers = 2;
  uint64_t queue_capacity = 64;
  int timeout_ms = 60000;
  bool serve_queries = false;
  uint64_t query_port = 0;
  uint64_t query_batches = 1;
  int query_timeout_ms = 60000;
  std::string snapshot_dir;
  uint64_t snapshot_interval = 8;
  uint64_t snapshot_interval_ms = 0;
  uint64_t snapshot_keep = 3;
  bool dump_metrics = false;
  std::string epoch_dir;
  uint64_t epoch_keep = 8;
  uint64_t epoch_interval_ms = 0;
  uint64_t epoch_users = 0;
  uint64_t target_epochs = 4;
};

// The epoch-rotated service: ingest rolls through a sequence of per-epoch
// pipelines; each rotation seals the previous pipeline into a checksummed
// segment and appends it to the served window, with in-flight batches
// belonging wholly to one epoch (the rotation runs under the ingest
// server's drain lock). Queries — plain and windowed — are served from
// the sealed window for the whole run, so answers never touch the open,
// still-mutating epoch.
int RunEpochMode(const EpochModeParams& p, const data::Dataset& schema_source,
                 const core::FelipConfig& base_config) {
  stream::EpochStore store(p.epoch_dir, static_cast<size_t>(p.epoch_keep));
  stream::EpochSet epochs(static_cast<size_t>(p.epoch_keep));
  stream::EpochRotationService rotation(&store, &epochs);

  // Warm restart, stage 1: reload every verifiable sealed segment. Their
  // embedded dedup-key union preseeds the ingest windows so resends of
  // batches that sealed epochs already counted are recognized, never
  // double-counted into the new open epoch.
  stream::EpochRotationService::RecoveredEpochs recovered =
      rotation.RecoverSegments();
  if (recovered.segments_loaded > 0 || recovered.segments_skipped > 0) {
    std::printf("recovered %zu sealed epoch(s) from %s (%zu skipped), "
                "open epoch %llu\n",
                recovered.segments_loaded, p.epoch_dir.c_str(),
                recovered.segments_skipped,
                static_cast<unsigned long long>(rotation.open_epoch_index()));
  }

  // Warm restart, stage 2: adopt an open-epoch checkpoint when it matches
  // the epoch that is actually open. A snapshot written before the last
  // seal carries a sealed epoch's seed — adopting it would resurrect
  // already-sealed reports, so it is rejected as stale.
  const core::FelipConfig open_config =
      stream::EpochConfig(base_config, rotation.open_epoch_index());
  std::unique_ptr<snapshot::SnapshotStore> snapshots;
  std::unique_ptr<core::FelipPipeline> open;
  if (!p.snapshot_dir.empty()) {
    snapshots = std::make_unique<snapshot::SnapshotStore>(
        p.snapshot_dir, static_cast<size_t>(p.snapshot_keep));
    StatusOr<snapshot::Recovered> checkpoint =
        snapshot::RecoverFromStore(*snapshots);
    if (checkpoint.ok()) {
      core::FelipPipeline& candidate = checkpoint->state.pipeline;
      if (candidate.state() <= core::PipelineState::kCollecting &&
          candidate.config().seed == open_config.seed) {
        std::printf("recovered open epoch %llu: %llu reports from %s\n",
                    static_cast<unsigned long long>(
                        rotation.open_epoch_index()),
                    static_cast<unsigned long long>(
                        candidate.reports_ingested()),
                    checkpoint->path.c_str());
        open = std::make_unique<core::FelipPipeline>(std::move(candidate));
        recovered.dedup_keys.insert(recovered.dedup_keys.end(),
                                    checkpoint->state.dedup_keys.begin(),
                                    checkpoint->state.dedup_keys.end());
      } else {
        std::fprintf(stderr,
                     "warning: snapshot %s is stale for open epoch %llu; "
                     "starting it fresh\n",
                     checkpoint->path.c_str(),
                     static_cast<unsigned long long>(
                         rotation.open_epoch_index()));
      }
    }
  }
  if (open == nullptr) {
    open = std::make_unique<core::FelipPipeline>(
        schema_source.attributes(), p.epoch_users, open_config);
  }
  svc::PipelineSink sink(open.get());

  std::unique_ptr<snapshot::Checkpointer> checkpointer;
  svc::TcpTransport transport;
  svc::IngestServerOptions server_options;
  server_options.queue_capacity = static_cast<size_t>(p.queue_capacity);
  server_options.worker_threads = p.workers;
  if (snapshots != nullptr) {
    checkpointer = std::make_unique<snapshot::Checkpointer>(snapshots.get(),
                                                            open.get());
    server_options.checkpoint_every_batches = p.snapshot_interval;
    server_options.checkpoint_every_ms = p.snapshot_interval_ms;
    server_options.checkpoint =
        [&checkpointer](std::span<const uint64_t> drained_keys) {
          return checkpointer->Checkpoint(drained_keys);
        };
  }

  // The rotation cut. Runs under the server's drain lock (from the
  // after_drain hook or WithDrainCut), so the pipeline being sealed and
  // the drained keys it embeds are one consistent cut: the batch that
  // just drained is wholly in, nothing is partially in.
  const auto rotate = [&](std::span<const uint64_t> drained_keys) {
    // A round is only sealable once every grid has at least one report
    // (estimation debiases by each grid's own n) — a clock tick that
    // fires mid-ramp leaves the epoch open and retries next interval.
    if (open->min_grid_reports() == 0) return;
    auto next = std::make_unique<core::FelipPipeline>(
        schema_source.attributes(), p.epoch_users,
        stream::EpochConfig(base_config, rotation.open_epoch_index() + 1));
    sink.SwapPipeline(next.get());
    if (checkpointer != nullptr) checkpointer->set_pipeline(next.get());
    std::unique_ptr<core::FelipPipeline> prev = std::move(open);
    open = std::move(next);
    prev->FinishIngest();
    prev->Finalize();
    const uint64_t reports = prev->reports_ingested();
    const uint64_t digest = core::GridFrequencyDigest(*prev);
    const StatusOr<std::string> sealed =
        rotation.SealEpoch(std::move(prev), drained_keys);
    std::printf("epoch %llu sealed: reports=%llu xxh64=%016llx%s\n",
                static_cast<unsigned long long>(epochs.newest_seq()),
                static_cast<unsigned long long>(reports),
                static_cast<unsigned long long>(digest),
                sealed.ok() ? "" : " (segment write FAILED)");
    std::fflush(stdout);
  };
  if (p.epoch_interval_ms == 0) {
    // Count-driven: rotate the moment the open epoch reaches its
    // population, on the drain path itself.
    server_options.after_drain = [&](std::span<const uint64_t> keys) {
      if (open->reports_ingested() >= p.epoch_users) rotate(keys);
    };
  }

  svc::IngestServer ingest(&transport,
                           p.host + ":" + std::to_string(p.port), &sink,
                           server_options);
  ingest.PreseedDedup(recovered.dedup_keys);
  if (!ingest.Start()) {
    std::fprintf(stderr, "error: could not bind %s:%llu\n", p.host.c_str(),
                 static_cast<unsigned long long>(p.port));
    return 1;
  }

  // Queries are served from the sealed window for the entire run — a
  // client polling before the first seal gets the retryable
  // kFailedPrecondition, and every response carries seal progress for
  // pacing.
  std::unique_ptr<svc::QueryServer> query_server;
  if (p.serve_queries) {
    query_server = std::make_unique<svc::QueryServer>(
        &transport, p.host + ":" + std::to_string(p.query_port),
        /*pipeline=*/nullptr, svc::QueryServerOptions{}, &epochs);
    if (!query_server->Start()) {
      std::fprintf(stderr, "error: could not bind query endpoint %s:%llu\n",
                   p.host.c_str(),
                   static_cast<unsigned long long>(p.query_port));
      return 1;
    }
    std::printf("serving windowed queries on %s\n",
                query_server->endpoint().c_str());
  }
  std::printf("listening on %s (epoch mode: %llu users/epoch, "
              "%llu epochs, %s rotation)\n",
              ingest.endpoint().c_str(),
              static_cast<unsigned long long>(p.epoch_users),
              static_cast<unsigned long long>(p.target_epochs),
              p.epoch_interval_ms > 0 ? "clock" : "count");
  std::fflush(stdout);

  // Clock-driven rotation: a timer thread takes a consistent drain cut
  // every interval and seals whatever the open epoch collected; empty
  // ticks are skipped inside rotate().
  std::atomic<bool> stop_rotation{false};
  std::thread rotator;
  if (p.epoch_interval_ms > 0) {
    rotator = std::thread([&] {
      while (!stop_rotation.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(p.epoch_interval_ms));
        if (stop_rotation.load()) break;
        ingest.WithDrainCut(rotate);
      }
    });
  }

  // The run is complete when the target number of epochs has sealed
  // (counting epochs recovered from a previous incarnation).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(p.timeout_ms);
  bool complete = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (epochs.newest_seq() >= p.target_epochs) {
      complete = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_rotation.store(true);
  if (rotator.joinable()) rotator.join();
  ingest.Stop();
  if (!complete) {
    std::fprintf(stderr,
                 "error: timed out with %llu/%llu epochs sealed "
                 "(open epoch holds %llu reports)\n",
                 static_cast<unsigned long long>(epochs.newest_seq()),
                 static_cast<unsigned long long>(p.target_epochs),
                 static_cast<unsigned long long>(open->reports_ingested()));
    return 1;
  }

  // Keep answering until the query workload is done, then report the
  // window's privacy budget: eps_max is the per-user guarantee under
  // report-once; eps_sum is the worst-case sequential composition if one
  // user reported in every retained epoch.
  int rc = 0;
  if (query_server != nullptr) {
    // Queries were served for the whole run (pacing polls, mid-run
    // windows), so a fixed post-seal batch count would race the client.
    // Instead serve until the client goes quiet — no new batch for half a
    // second — and require the total to have reached --query-batches.
    const auto query_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(p.query_timeout_ms);
    uint64_t answered = query_server->batches_answered();
    auto quiet_since = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() < query_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const uint64_t now_answered = query_server->batches_answered();
      if (now_answered != answered) {
        answered = now_answered;
        quiet_since = std::chrono::steady_clock::now();
      } else if (answered >= p.query_batches &&
                 std::chrono::steady_clock::now() - quiet_since >=
                     std::chrono::milliseconds(500)) {
        break;
      }
    }
    const bool served = query_server->batches_answered() >= p.query_batches;
    query_server->Stop();
    std::printf("query batches answered=%llu (windowed=%llu) queries=%llu "
                "invalid=%llu not_ready=%llu\n",
                static_cast<unsigned long long>(
                    query_server->batches_answered()),
                static_cast<unsigned long long>(
                    query_server->windowed_answered()),
                static_cast<unsigned long long>(
                    query_server->queries_answered()),
                static_cast<unsigned long long>(
                    query_server->batches_invalid()),
                static_cast<unsigned long long>(
                    query_server->batches_not_ready()));
    if (!served) {
      std::fprintf(stderr, "error: timed out waiting for query batches\n");
      rc = 1;
    }
  }
  const stream::EpochSet::BudgetReport budget = epochs.WindowBudget();
  std::printf("epoch window: epochs=%zu reports=%llu eps_max=%.17g "
              "eps_sum=%.17g seals=%llu seal_failures=%llu "
              "checkpoints=%llu\n",
              budget.epochs,
              static_cast<unsigned long long>(budget.reports),
              budget.max_epoch_epsilon, budget.sum_epsilon,
              static_cast<unsigned long long>(rotation.epochs_sealed()),
              static_cast<unsigned long long>(rotation.seal_failures()),
              static_cast<unsigned long long>(ingest.checkpoints_written()));
  if (p.dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);

  const bool show_help = flags.GetBool("help", false);
  const uint64_t port = flags.GetUint("port", 7071);
  const std::string host = flags.GetString("host", "127.0.0.1");
  const uint64_t users = flags.GetUint("users", 100000);
  const auto attributes =
      static_cast<uint32_t>(flags.GetUint("attributes", 6));
  const auto num_domain =
      static_cast<uint32_t>(flags.GetUint("num-domain", 100));
  const auto cat_domain =
      static_cast<uint32_t>(flags.GetUint("cat-domain", 8));
  const double epsilon = flags.GetDouble("epsilon", 1.0);
  const std::string strategy = flags.GetString("strategy", "ohg");
  const std::string protocols = flags.GetString("protocols", "");
  const uint64_t report_budget_bytes =
      flags.GetUint("report-budget-bytes", 0);
  const uint64_t seed = flags.GetUint("seed", 1);
  const auto workers = static_cast<unsigned>(flags.GetUint("workers", 2));
  const uint64_t queue_capacity = flags.GetUint("queue-capacity", 64);
  const int timeout_ms =
      static_cast<int>(flags.GetInt("timeout-ms", 60000));
  const bool serve_queries = flags.GetBool("serve-queries", false);
  const uint64_t query_port = flags.GetUint("query-port", 0);
  const uint64_t query_batches = flags.GetUint("query-batches", 1);
  const int query_timeout_ms =
      static_cast<int>(flags.GetInt("query-timeout-ms", 60000));
  const std::string snapshot_dir = flags.GetString("snapshot-dir", "");
  const uint64_t snapshot_interval = flags.GetUint("snapshot-interval", 8);
  const uint64_t snapshot_interval_ms =
      flags.GetUint("snapshot-interval-ms", 0);
  const uint64_t snapshot_keep = flags.GetUint("snapshot-keep", 3);
  const std::string report_log_dir = flags.GetString("report-log-dir", "");
  const uint64_t report_log_segment_mb =
      flags.GetUint("report-log-segment-mb", 64);
  const uint64_t report_log_keep = flags.GetUint("report-log-keep", 0);
  const std::string normalization_name =
      flags.GetString("normalization", "sub");
  const bool dump_metrics = flags.GetBool("metrics", false);
  const std::string epoch_dir = flags.GetString("epoch-dir", "");
  const uint64_t epoch_keep = flags.GetUint("epoch-keep", 8);
  const uint64_t epoch_interval_ms = flags.GetUint("epoch-interval-ms", 0);
  const uint64_t epoch_users = flags.GetUint("epoch-users", users);
  const uint64_t target_epochs = flags.GetUint("epochs", 4);
  const bool epoch_inspect = flags.GetBool("epoch-inspect", false);
  const auto num_shards =
      static_cast<uint32_t>(flags.GetUint("num-shards", 1));
  const auto shard_id = static_cast<uint32_t>(flags.GetUint("shard-id", 0));
  const uint64_t accum_port = flags.GetUint("accum-port", 0);
  const std::vector<std::string> root_endpoints =
      SplitCommaList(flags.GetString("root", ""));

  bool usage_error = false;
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "error: unknown flag: --%s\n", unknown.c_str());
    usage_error = true;
  }
  for (const std::string& positional : flags.positional()) {
    std::fprintf(stderr, "error: unexpected argument: %s\n",
                 positional.c_str());
    usage_error = true;
  }
  if (usage_error) {
    std::fprintf(stderr, "\n");
    PrintUsage();
    return 2;
  }
  if (show_help) {
    PrintUsage();
    return 0;
  }
  if (strategy != "oug" && strategy != "ohg") {
    std::fprintf(stderr, "error: --strategy must be oug or ohg\n");
    return 2;
  }
  const std::optional<post::Normalization> normalization =
      post::ParseNormalization(normalization_name);
  if (!normalization.has_value()) {
    std::fprintf(stderr, "error: --normalization must be sub, mul, or cut\n");
    return 2;
  }
  if (num_shards < 1 || shard_id >= num_shards) {
    std::fprintf(stderr,
                 "error: --shard-id must be in [0, --num-shards)\n");
    return 2;
  }
  if (!root_endpoints.empty() && num_shards > 1) {
    std::fprintf(stderr,
                 "error: --root and --num-shards are mutually exclusive "
                 "(the root's shard count is the endpoint count)\n");
    return 2;
  }
  if (num_shards > 1 && serve_queries) {
    std::fprintf(stderr,
                 "error: shards hold partial state; serve queries from "
                 "the root (--root ... --serve-queries)\n");
    return 2;
  }
  if (epoch_inspect && epoch_dir.empty()) {
    std::fprintf(stderr, "error: --epoch-inspect requires --epoch-dir\n");
    return 2;
  }
  if (!epoch_dir.empty() && (num_shards > 1 || !root_endpoints.empty())) {
    std::fprintf(stderr,
                 "error: epoch rotation is single-node; it cannot combine "
                 "with --num-shards or --root\n");
    return 2;
  }
  if (!epoch_dir.empty() && !report_log_dir.empty()) {
    std::fprintf(stderr,
                 "error: the replay log replays one round; it cannot "
                 "combine with epoch rotation yet\n");
    return 2;
  }
  if (epoch_inspect) return InspectEpochs(epoch_dir, epoch_keep);

  // The schema comes from the same generator felip_client uses; only the
  // attribute metadata matters here — the values stay on the clients.
  const data::Dataset schema_source =
      data::MakeIpumsLike(1, attributes, num_domain, cat_domain, seed);

  core::FelipConfig config;
  config.strategy =
      strategy == "oug" ? core::Strategy::kOug : core::Strategy::kOhg;
  config.epsilon = epsilon;
  config.seed = seed;
  config.normalization = *normalization;
  config.report_budget_bytes = report_budget_bytes;
  if (!protocols.empty()) {
    for (const fo::ProtocolTraits& traits : fo::AllProtocolTraits()) {
      config.SetProtocolAllowed(traits.protocol, false);
    }
    for (const std::string& name : SplitCommaList(protocols)) {
      const StatusOr<fo::Protocol> p = fo::ProtocolFromName(name);
      if (!p.ok()) {
        std::fprintf(stderr, "error: unknown protocol in --protocols: %s\n",
                     name.c_str());
        return 2;
      }
      config.SetProtocolAllowed(*p, true);
    }
  }

  if (!epoch_dir.empty()) {
    EpochModeParams params;
    params.host = host;
    params.port = port;
    params.workers = workers;
    params.queue_capacity = queue_capacity;
    params.timeout_ms = timeout_ms;
    params.serve_queries = serve_queries;
    params.query_port = query_port;
    params.query_batches = query_batches;
    params.query_timeout_ms = query_timeout_ms;
    params.snapshot_dir = snapshot_dir;
    params.snapshot_interval = snapshot_interval;
    params.snapshot_interval_ms = snapshot_interval_ms;
    params.snapshot_keep = snapshot_keep;
    params.dump_metrics = dump_metrics;
    params.epoch_dir = epoch_dir;
    params.epoch_keep = epoch_keep;
    params.epoch_interval_ms = epoch_interval_ms;
    params.epoch_users = epoch_users;
    params.target_epochs = target_epochs;
    return RunEpochMode(params, schema_source, config);
  }

  // Root aggregator: no ingest endpoint of its own — pull every shard's
  // accumulator frames, merge them in shard-id order, and finalize. The
  // epilogue (fingerprint, queries, metrics) is identical to the
  // single-node path, because the merged pipeline is bit-identical to
  // single-node collection.
  if (!root_endpoints.empty()) {
    core::FelipPipeline pipeline(schema_source.attributes(), users, config);
    dist::RootAggregatorOptions root_options;
    root_options.expected_reports = users;
    root_options.plan_digest = dist::PlanDigest(pipeline);
    svc::TcpTransport transport;
    dist::RootAggregator root(&transport, root_endpoints, root_options);
    std::printf("root pulling from %zu shard(s), expecting %llu reports\n",
                root_endpoints.size(),
                static_cast<unsigned long long>(users));
    std::fflush(stdout);
    Status status = root.PullUntilComplete(timeout_ms);
    if (status.ok()) status = root.MergeInto(&pipeline);
    if (!status.ok()) {
      std::fprintf(stderr,
                   "error: %s (reports accounted=%llu frames pulled=%llu "
                   "stale=%llu failures=%llu)\n",
                   status.ToString().c_str(),
                   static_cast<unsigned long long>(root.total_reports()),
                   static_cast<unsigned long long>(root.frames_pulled()),
                   static_cast<unsigned long long>(root.frames_stale()),
                   static_cast<unsigned long long>(root.pull_failures()));
      return 1;
    }
    std::printf(
        "merged %llu reports from %zu shard(s) (frames pulled=%llu "
        "stale=%llu failures=%llu)\n",
        static_cast<unsigned long long>(pipeline.reports_ingested()),
        root_endpoints.size(),
        static_cast<unsigned long long>(root.frames_pulled()),
        static_cast<unsigned long long>(root.frames_stale()),
        static_cast<unsigned long long>(root.pull_failures()));
    pipeline.Finalize();
    PrintEstimateFingerprint(pipeline);
    if (serve_queries) {
      const int rc = ServeQueries(&transport, host, query_port, &pipeline,
                                  query_batches, query_timeout_ms);
      if (rc != 0) return rc;
    }
    if (dump_metrics) {
      const std::string text = obs::Registry::Default().RenderText();
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
    return 0;
  }

  // Warm restart: adopt the newest verifiable snapshot when one exists.
  // The snapshot must come from a server launched with the same planning
  // flags — the recovered pipeline replaces the flags-derived plan.
  std::unique_ptr<snapshot::SnapshotStore> store;
  std::optional<core::FelipPipeline> pipeline;
  std::vector<uint64_t> recovered_keys;
  if (!snapshot_dir.empty()) {
    store = std::make_unique<snapshot::SnapshotStore>(
        snapshot_dir, static_cast<size_t>(snapshot_keep));
    StatusOr<snapshot::Recovered> recovered =
        snapshot::RecoverFromStore(*store);
    if (recovered.ok() &&
        recovered->state.pipeline.state() <= core::PipelineState::kCollecting) {
      std::printf(
          "recovered %llu reports from %s (%zu unusable snapshot(s) "
          "skipped)\n",
          static_cast<unsigned long long>(
              recovered->state.pipeline.reports_ingested()),
          recovered->path.c_str(), recovered->files_skipped);
      pipeline.emplace(std::move(recovered->state.pipeline));
      recovered_keys = std::move(recovered->state.dedup_keys);
    } else if (recovered.ok()) {
      std::fprintf(stderr,
                   "warning: snapshot %s is past collection; starting a "
                   "fresh round\n",
                   recovered->path.c_str());
    } else {
      std::printf("no usable snapshot in %s (%s); starting fresh\n",
                  snapshot_dir.c_str(),
                  recovered.status().ToString().c_str());
    }
  }
  if (!pipeline.has_value()) {
    pipeline.emplace(schema_source.attributes(), users, config);
  }
  svc::PipelineSink sink(&*pipeline);

  // The report log's plan comes from the live pipeline (flags-derived or
  // snapshot-recovered), so felip_replay replans the identical layout. A
  // restart appends new segments whose plans match the old ones byte for
  // byte — same config, same schema, same population.
  std::unique_ptr<replaylog::LogWriter> report_log;
  if (!report_log_dir.empty()) {
    replaylog::LogWriterOptions log_options;
    log_options.segment_bytes = report_log_segment_mb << 20;
    log_options.keep_segments = static_cast<size_t>(report_log_keep);
    StatusOr<replaylog::LogWriter> opened = replaylog::LogWriter::Open(
        report_log_dir,
        replaylog::EncodePlan(pipeline->config(), pipeline->num_users(),
                              pipeline->schema()),
        log_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: cannot open report log: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    report_log =
        std::make_unique<replaylog::LogWriter>(*std::move(opened));
  }

  std::unique_ptr<snapshot::Checkpointer> checkpointer;
  svc::TcpTransport transport;
  svc::IngestServerOptions server_options;
  server_options.queue_capacity = static_cast<size_t>(queue_capacity);
  server_options.worker_threads = workers;
  std::optional<dist::ShardRouter> router;
  if (num_shards > 1) {
    router.emplace(num_shards);
    // Preseed only this shard's keys: after a resharded restart the
    // snapshot may hold batches that now belong to another shard, and
    // those must not be pre-rejected here.
    server_options.owns_key = [&router, shard_id](uint64_t key) {
      return router->OwnerShard(key) == shard_id;
    };
  }
  if (report_log != nullptr) {
    // Runs under the server's drain lock, so the non-thread-safe writer
    // only ever sees one appender.
    server_options.report_log = [&report_log](
                                    uint64_t key,
                                    std::span<const uint8_t> frame) {
      return report_log->Append(replaylog::RecordType::kBatch, key, frame);
    };
  }
  if (store != nullptr) {
    checkpointer =
        std::make_unique<snapshot::Checkpointer>(store.get(), &*pipeline);
    server_options.checkpoint_every_batches = snapshot_interval;
    server_options.checkpoint_every_ms = snapshot_interval_ms;
    server_options.checkpoint =
        [&checkpointer, &report_log](std::span<const uint64_t> drained_keys) {
          // A checkpoint must never lead the log: every batch the cut
          // claims has to be OS-durable in the log first, or a SIGKILL
          // could leave a snapshot holding batches replay cannot see.
          if (report_log != nullptr) {
            FELIP_RETURN_IF_ERROR(report_log->Flush());
          }
          return checkpointer->Checkpoint(drained_keys);
        };
  }
  svc::IngestServer server(
      &transport, host + ":" + std::to_string(port), &sink, server_options);
  server.PreseedDedup(recovered_keys);
  if (!server.Start()) {
    std::fprintf(stderr, "error: could not bind %s:%llu\n", host.c_str(),
                 static_cast<unsigned long long>(port));
    return 1;
  }
  // Shard mode: serve cumulative accumulator frames on a second endpoint
  // and wait for the root's seal instead of a local population count —
  // only the root can see the whole round.
  std::unique_ptr<dist::ShardAccumulatorServer> accum;
  if (num_shards > 1) {
    dist::ShardAccumulatorOptions accum_options;
    accum_options.shard_id = shard_id;
    accum_options.num_shards = num_shards;
    accum_options.plan_digest = dist::PlanDigest(*pipeline);
    if (!snapshot_dir.empty()) {
      StatusOr<uint64_t> epoch = dist::BumpShardEpoch(snapshot_dir);
      if (!epoch.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     epoch.status().ToString().c_str());
        return 1;
      }
      accum_options.epoch = *epoch;
    }
    accum = std::make_unique<dist::ShardAccumulatorServer>(
        &transport, host + ":" + std::to_string(accum_port), &sink,
        accum_options);
    if (!accum->Start()) {
      std::fprintf(stderr, "error: could not bind accumulator %s:%llu\n",
                   host.c_str(),
                   static_cast<unsigned long long>(accum_port));
      return 1;
    }
    std::printf("shard %u/%u accumulator on %s (epoch %llu)\n", shard_id,
                num_shards, accum->endpoint().c_str(),
                static_cast<unsigned long long>(accum_options.epoch));
  }
  std::printf("listening on %s (%llu grids, expecting %llu reports)\n",
              server.endpoint().c_str(),
              static_cast<unsigned long long>(pipeline->num_groups()),
              static_cast<unsigned long long>(users));
  std::fflush(stdout);

  // A recovered pipeline already counts some of the population; this run
  // only needs the remainder (clients resend everything, but resends of
  // already-counted batches ack kAlreadyExists and never reach the sink).
  // A shard instead waits for the root's seal: only the root can tell
  // when the global population is accounted for.
  bool complete;
  if (accum != nullptr) {
    complete = accum->WaitForSeal(timeout_ms);
  } else {
    const uint64_t already = pipeline->reports_ingested();
    const uint64_t remaining = users > already ? users - already : 0;
    complete = server.WaitForReports(remaining, timeout_ms);
  }
  server.Stop();
  if (accum != nullptr) accum->Stop();
  if (accum == nullptr) sink.Finish();
  if (report_log != nullptr) {
    const Status sealed = report_log->Seal();
    if (!sealed.ok()) {
      std::fprintf(stderr, "warning: %s\n", sealed.ToString().c_str());
    }
    std::printf("report log: batches logged=%llu failures=%llu "
                "segments sealed=%llu\n",
                static_cast<unsigned long long>(server.batches_logged()),
                static_cast<unsigned long long>(server.log_failures()),
                static_cast<unsigned long long>(
                    report_log->segments_sealed()));
  }
  if (!complete) {
    std::fprintf(stderr,
                 "error: timed out with %llu/%llu reports (accepted=%llu "
                 "rejected=%llu)\n",
                 static_cast<unsigned long long>(server.reports_seen()),
                 static_cast<unsigned long long>(users),
                 static_cast<unsigned long long>(sink.accepted()),
                 static_cast<unsigned long long>(sink.rejected()));
    return 1;
  }

  // A sealed shard is done: the root holds its final frame and owns
  // estimation. Partial state is never finalized or queried here.
  if (accum != nullptr) {
    std::printf(
        "shard %u/%u sealed: reports accepted=%llu rejected=%llu; "
        "frames served=%llu pulls rejected=%llu preseed filtered=%llu "
        "checkpoints=%llu\n",
        shard_id, num_shards,
        static_cast<unsigned long long>(sink.accepted()),
        static_cast<unsigned long long>(sink.rejected()),
        static_cast<unsigned long long>(accum->frames_served()),
        static_cast<unsigned long long>(accum->pulls_rejected()),
        static_cast<unsigned long long>(server.preseed_filtered()),
        static_cast<unsigned long long>(server.checkpoints_written()));
    if (dump_metrics) {
      const std::string text = obs::Registry::Default().RenderText();
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
    return 0;
  }

  // The wait completes on reports *seen*, so a population whose reports
  // the sink rejected (a client planning with different --epsilon/
  // --strategy/--protocols/--report-budget-bytes perturbs for the wrong
  // grids) would otherwise finalize oracles that never ingested anything.
  if (sink.rejected() > 0) {
    std::fprintf(stderr,
                 "error: %llu reports rejected (accepted=%llu/%llu); client "
                 "and server must share --epsilon/--strategy/--protocols/"
                 "--report-budget-bytes so devices perturb the plan this "
                 "server expects\n",
                 static_cast<unsigned long long>(sink.rejected()),
                 static_cast<unsigned long long>(sink.accepted()),
                 static_cast<unsigned long long>(users));
    return 1;
  }

  pipeline->Finalize();
  std::printf(
      "round complete: batches accepted=%llu duplicate=%llu "
      "backpressured=%llu malformed=%llu checkpoints=%llu; reports "
      "accepted=%llu rejected=%llu\n",
      static_cast<unsigned long long>(server.batches_accepted()),
      static_cast<unsigned long long>(server.batches_duplicate()),
      static_cast<unsigned long long>(server.batches_rejected()),
      static_cast<unsigned long long>(server.batches_malformed()),
      static_cast<unsigned long long>(server.checkpoints_written()),
      static_cast<unsigned long long>(sink.accepted()),
      static_cast<unsigned long long>(sink.rejected()));

  PrintEstimateFingerprint(*pipeline);

  if (serve_queries) {
    const int rc = ServeQueries(&transport, host, query_port, &*pipeline,
                                query_batches, query_timeout_ms);
    if (rc != 0) return rc;
  }

  if (dump_metrics) {
    const std::string text = obs::Registry::Default().RenderText();
    std::fwrite(text.data(), 1, text.size(), stderr);
  }
  return 0;
}
