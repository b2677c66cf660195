// Epoch rotation throughput (google-benchmark): the service-tier costs a
// clock-driven rotation pays per epoch, measured in isolation.
//
// Encode/Decode cover the epoch file codec (a PipelineCodec snapshot of
// the finalized pipeline plus its kEpoch section; decode rebuilds the
// queryable pipeline) — the CPU side of a seal and a recovery.
// StoreCommit adds the tmp+rename commit and keep-last-N compaction, the
// disk side of a seal. Recover rebuilds a
// full serving window from a segment directory the way a restarted
// server does (verify + decode every segment, reconstruct queryable
// pipelines, union the dedup keys). WindowedAnswer is the steady-state
// query cost: one decay-mixed batch answered across the newest W epochs
// of a 16-epoch window, the same per-epoch batch engine + DecayMix fold
// the served kWindowedQuery path runs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json_reporter.h"
#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/epoch_store.h"

namespace felip {
namespace {

constexpr uint64_t kSeed = 47;
constexpr size_t kWindowEpochs = 16;

// FELIP_BENCH_USERS shrinks the per-epoch population for smoke runs; the
// default reproduces the committed trajectory workload.
uint64_t EpochUsers() { return eval::BenchUsers(20000); }

core::FelipConfig MakeConfig(uint64_t epoch) {
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = kSeed + epoch;
  config.olh_options.seed_pool_size = 256;
  return config;
}

// One epoch's queryable pipeline: collected over that epoch's synthetic
// arrivals and finalized, the state a rotation cut seals.
core::FelipPipeline MakeEpochPipeline(uint64_t users, uint64_t epoch) {
  const data::Dataset dataset =
      data::MakeIpumsLike(users, 3, 24, 5, kSeed + epoch);
  core::FelipPipeline pipeline(dataset.attributes(), users,
                               MakeConfig(epoch));
  pipeline.Collect(dataset);
  pipeline.Finalize();
  return pipeline;
}

std::vector<uint64_t> MakeDedupKeys(size_t count) {
  std::vector<uint64_t> keys(count);
  std::iota(keys.begin(), keys.end(), 0x9e3779b97f4a7c15ull);
  return keys;
}

// The dedup keys every sealed epoch in these rows carries.
const std::vector<uint64_t>& EpochKeys() {
  static const std::vector<uint64_t> keys = MakeDedupKeys(1 << 10);
  return keys;
}

std::vector<uint8_t> EncodeEpoch(const core::FelipPipeline& pipeline,
                                 uint64_t seq) {
  return snapshot::PipelineCodec::Encode(pipeline, {}, EpochKeys(), seq);
}

void BM_EpochSegmentEncode(benchmark::State& state) {
  const auto users = static_cast<uint64_t>(state.range(0));
  const core::FelipPipeline pipeline = MakeEpochPipeline(users, 0);
  size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> encoded = EncodeEpoch(pipeline, 1);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["segment_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EpochSegmentEncode)
    ->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_EpochSegmentDecode(benchmark::State& state) {
  const auto users = static_cast<uint64_t>(state.range(0));
  const std::vector<uint8_t> encoded =
      EncodeEpoch(MakeEpochPipeline(users, 0), 1);
  for (auto _ : state) {
    auto decoded = snapshot::PipelineCodec::Decode(encoded);
    if (!decoded.ok() || decoded->epoch_seq != 1) {
      state.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(decoded->dedup_keys.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(encoded.size()) *
                          state.iterations());
}
BENCHMARK(BM_EpochSegmentDecode)
    ->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_EpochStoreCommit(benchmark::State& state) {
  const core::FelipPipeline pipeline = MakeEpochPipeline(EpochUsers(), 0);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "felip_perf_epoch_store";
  std::filesystem::remove_all(dir);
  stream::EpochStore store(dir.string(), kWindowEpochs);
  for (auto _ : state) {
    const auto path = store.Write(store.next_seq(), pipeline, EpochKeys());
    if (!path.ok()) {
      state.SkipWithError("store write failed");
      return;
    }
    benchmark::DoNotOptimize(path->data());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(EncodeEpoch(pipeline, 1).size()) *
      state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_EpochStoreCommit)->Unit(benchmark::kMillisecond);

void BM_EpochRecover(benchmark::State& state) {
  const auto window = static_cast<size_t>(state.range(0));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "felip_perf_epoch_recover";
  std::filesystem::remove_all(dir);
  {
    stream::EpochStore store(dir.string(), window);
    for (uint64_t seq = 1; seq <= window; ++seq) {
      if (!store.Write(seq, MakeEpochPipeline(EpochUsers(), seq - 1),
                       EpochKeys())
               .ok()) {
        state.SkipWithError("fixture write failed");
        return;
      }
    }
  }
  for (auto _ : state) {
    stream::EpochStore store(dir.string(), window);
    stream::EpochSet epochs(window);
    stream::EpochRotationService rotation(&store, &epochs);
    const auto recovered = rotation.RecoverSegments();
    if (recovered.segments_loaded != window) {
      state.SkipWithError("recovery lost segments");
      return;
    }
    benchmark::DoNotOptimize(recovered.dedup_keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(window) * state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_EpochRecover)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// The serving window every WindowedAnswer row queries: 16 sealed epochs
// of distinct arrivals, built once.
const stream::EpochSet& ServingWindow() {
  static const stream::EpochSet* window = [] {
    auto* epochs = new stream::EpochSet(kWindowEpochs);
    for (uint64_t e = 0; e < kWindowEpochs; ++e) {
      stream::SealedEpoch sealed;
      sealed.seq = e + 1;
      sealed.reports = EpochUsers();
      sealed.epsilon = 1.0;
      sealed.pipeline = std::make_shared<const core::FelipPipeline>(
          MakeEpochPipeline(EpochUsers(), e));
      epochs->Append(std::move(sealed));
    }
    return epochs;
  }();
  return *window;
}

void BM_WindowedAnswer(benchmark::State& state) {
  const auto window = static_cast<uint32_t>(state.range(0));
  const double decay = state.range(1) == 0 ? 1.0 : 0.5;
  const stream::EpochSet& epochs = ServingWindow();
  const data::Dataset dataset =
      data::MakeIpumsLike(EpochUsers(), 3, 24, 5, kSeed);
  Rng rng(kSeed + 1);
  const std::vector<query::Query> queries = query::GenerateQueries(
      dataset, eval::BenchQueries(256),
      {.dimension = 2, .selectivity = 0.5, .range_only = true}, rng);
  for (auto _ : state) {
    const auto answers = epochs.AnswerWindowed(queries, window, decay);
    if (!answers.ok()) {
      state.SkipWithError("windowed answer failed");
      return;
    }
    benchmark::DoNotOptimize(answers->data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries.size()) *
                          state.iterations());
}
BENCHMARK(BM_WindowedAnswer)
    ->Args({1, 0})->Args({4, 0})->Args({4, 1})->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace felip

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  felip::bench::BenchJsonReporter reporter(
      "perf_epoch_rotation",
      "users_per_epoch=20000;window=16;dedup_keys=1024");
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  felip::bench::DumpObsJsonIfRequested();
  return 0;
}
