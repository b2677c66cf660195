#include "felip/stream/epoch_service.h"

#include <algorithm>
#include <utility>

#include "felip/common/check.h"
#include "felip/obs/metrics.h"
#include "felip/obs/trace.h"
#include "felip/stream/streaming.h"

namespace felip::stream {

namespace {

struct EpochCounters {
  obs::Counter& seals;
  obs::Counter& seal_failures;
  obs::Counter& reports;
  obs::Counter& recovered;
  obs::Counter& skipped;
  obs::Gauge& retained;
  obs::Gauge& window_epsilon;

  static EpochCounters& Get() {
    static EpochCounters counters{
        obs::Registry::Default().GetCounter("felip_epoch_seals_total"),
        obs::Registry::Default().GetCounter("felip_epoch_seal_failures_total"),
        obs::Registry::Default().GetCounter("felip_epoch_reports_total"),
        obs::Registry::Default().GetCounter(
            "felip_epoch_segments_recovered_total"),
        obs::Registry::Default().GetCounter(
            "felip_epoch_segments_skipped_total"),
        obs::Registry::Default().GetGauge("felip_epoch_segments_retained"),
        obs::Registry::Default().GetGauge("felip_epoch_window_epsilon_sum"),
    };
    return counters;
  }
};

// The two epochs must serve the same attribute layout; names are
// cosmetic, domains and kinds are load-bearing.
bool SameSchema(const std::vector<data::AttributeInfo>& a,
                const std::vector<data::AttributeInfo>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].domain != b[i].domain || a[i].categorical != b[i].categorical) {
      return false;
    }
  }
  return true;
}

// The served form of a finalized pipeline sealed as epoch `seq`.
SealedEpoch Sealed(uint64_t seq,
                   std::shared_ptr<const core::FelipPipeline> pipeline) {
  SealedEpoch epoch;
  epoch.seq = seq;
  epoch.reports = pipeline->reports_ingested();
  epoch.epsilon = pipeline->config().epsilon;
  epoch.pipeline = std::move(pipeline);
  return epoch;
}

}  // namespace

EpochSet::EpochSet(size_t max_epochs) : max_epochs_(max_epochs) {
  FELIP_CHECK_MSG(max_epochs_ >= 1, "EpochSet window must hold >= 1 epoch");
}

void EpochSet::Append(SealedEpoch epoch) {
  FELIP_CHECK(epoch.pipeline != nullptr);
  FELIP_CHECK_MSG(
      epoch.pipeline->state() == core::PipelineState::kQueryable,
      "only finalized epochs can be served");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!epochs_.empty()) {
    FELIP_CHECK_MSG(epoch.seq > epochs_.back().seq,
                    "epoch sequences must be strictly increasing");
    FELIP_CHECK_MSG(SameSchema(epoch.pipeline->schema(),
                               epochs_.back().pipeline->schema()),
                    "sealed epochs must share one schema");
  }
  epochs_.push_back(std::move(epoch));
  while (epochs_.size() > max_epochs_) epochs_.pop_front();
  EpochCounters::Get().retained.Set(static_cast<double>(epochs_.size()));
}

size_t EpochSet::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epochs_.size();
}

uint64_t EpochSet::newest_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epochs_.empty() ? 0 : epochs_.back().seq;
}

std::vector<data::AttributeInfo> EpochSet::schema() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (epochs_.empty()) return {};
  return epochs_.back().pipeline->schema();
}

StatusOr<std::vector<double>> EpochSet::AnswerWindowed(
    std::span<const query::Query> queries, uint32_t window, double decay,
    const core::QueryBatchOptions& options) const {
  obs::ScopedTimer span("felip_epoch_answer_windowed");
  FELIP_CHECK_MSG(decay > 0.0 && decay <= 1.0,
                  "decay must be in (0, 1] (the wire decoder enforces this "
                  "for network input)");
  std::lock_guard<std::mutex> lock(mutex_);
  if (epochs_.empty()) {
    return Status::FailedPrecondition("no epoch has been sealed yet");
  }
  const size_t span_epochs =
      window == 0 ? epochs_.size()
                  : std::min<size_t>(window, epochs_.size());
  const size_t first = epochs_.size() - span_epochs;

  // One batch-engine pass per epoch (oldest first), then the shared
  // DecayMix fold per query, so the served answer is bit-identical to
  // mixing per-epoch scalar answers in process.
  std::vector<std::vector<double>> per_epoch;
  per_epoch.reserve(span_epochs);
  for (size_t e = first; e < epochs_.size(); ++e) {
    per_epoch.push_back(epochs_[e].pipeline->AnswerQueries(queries, options));
  }
  std::vector<double> answers(queries.size());
  std::vector<double> history(span_epochs);
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t e = 0; e < span_epochs; ++e) history[e] = per_epoch[e][q];
    answers[q] = DecayMix(history, decay);
  }
  return answers;
}

StatusOr<std::vector<double>> EpochSet::AnswerLatest(
    std::span<const query::Query> queries,
    const core::QueryBatchOptions& options) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (epochs_.empty()) {
    return Status::FailedPrecondition("no epoch has been sealed yet");
  }
  return epochs_.back().pipeline->AnswerQueries(queries, options);
}

EpochSet::BudgetReport EpochSet::WindowBudget(uint32_t window) const {
  std::lock_guard<std::mutex> lock(mutex_);
  BudgetReport report;
  const size_t span_epochs =
      window == 0 ? epochs_.size()
                  : std::min<size_t>(window, epochs_.size());
  for (size_t e = epochs_.size() - span_epochs; e < epochs_.size(); ++e) {
    report.max_epoch_epsilon =
        std::max(report.max_epoch_epsilon, epochs_[e].epsilon);
    report.sum_epsilon += epochs_[e].epsilon;
    report.reports += epochs_[e].reports;
    ++report.epochs;
  }
  return report;
}

EpochRotationService::EpochRotationService(EpochStore* store, EpochSet* epochs,
                                           core::SnapshotOptions options)
    : store_(store), epochs_(epochs), options_(options) {
  FELIP_CHECK(store != nullptr);
  FELIP_CHECK(epochs != nullptr);
}

uint64_t EpochRotationService::open_epoch_index() const {
  return std::max(store_->next_seq(), epochs_->newest_seq() + 1) - 1;
}

EpochRotationService::RecoveredEpochs EpochRotationService::RecoverSegments() {
  EpochCounters& counters = EpochCounters::Get();
  RecoveredEpochs recovered;
  LoadedEpochs loaded = store_->LoadAll();
  recovered.segments_loaded = loaded.epochs.size();
  recovered.segments_skipped = loaded.files_skipped;
  for (snapshot::RecoveredPipeline& state : loaded.epochs) {
    recovered.dedup_keys.insert(recovered.dedup_keys.end(),
                                state.dedup_keys.begin(),
                                state.dedup_keys.end());
    epochs_->Append(Sealed(state.epoch_seq,
                           std::make_shared<core::FelipPipeline>(
                               std::move(state.pipeline))));
  }
  counters.recovered.Increment(recovered.segments_loaded);
  counters.skipped.Increment(recovered.segments_skipped);
  counters.window_epsilon.Set(epochs_->WindowBudget().sum_epsilon);
  return recovered;
}

StatusOr<std::string> EpochRotationService::SealEpoch(
    std::unique_ptr<core::FelipPipeline> pipeline,
    std::span<const uint64_t> drained_keys) {
  obs::ScopedTimer span("felip_epoch_seal");
  EpochCounters& counters = EpochCounters::Get();
  FELIP_CHECK(pipeline != nullptr);
  FELIP_CHECK_MSG(pipeline->reports_ingested() > 0,
                  "an empty epoch cannot be sealed (skip the tick instead)");
  if (pipeline->state() == core::PipelineState::kCollecting) {
    pipeline->FinishIngest();
  }
  if (pipeline->state() == core::PipelineState::kSealed) {
    pipeline->Finalize();
  }
  FELIP_CHECK_MSG(pipeline->state() == core::PipelineState::kQueryable,
                  "SealEpoch needs a collecting, sealed, or finalized "
                  "pipeline");

  const uint64_t seq =
      std::max(store_->next_seq(), epochs_->newest_seq() + 1);
  const uint64_t reports = pipeline->reports_ingested();
  StatusOr<std::string> path =
      store_->Write(seq, *pipeline, drained_keys, options_);
  // Serve the epoch either way: a failed commit degrades what a restart
  // can recover, not what live queries see (and the counter is the
  // operator's durability signal, mirroring checkpoint failures).
  epochs_->Append(Sealed(seq, std::move(pipeline)));
  ++epochs_sealed_;
  counters.seals.Increment();
  counters.reports.Increment(reports);
  counters.window_epsilon.Set(epochs_->WindowBudget().sum_epsilon);
  if (!path.ok()) {
    ++seal_failures_;
    counters.seal_failures.Increment();
  }
  return path;
}

}  // namespace felip::stream
