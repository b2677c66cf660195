// In-process streaming FELIP: each epoch's EpochConfig-derived pipeline
// is collected, finalized and sealed into an EpochSet, which answers from
// the decay-mixed window. The suite pins the window bounds, the per-epoch
// seed derivation and the DecayMix fold against standalone per-epoch
// pipelines, bit for bit.

#include "felip/stream/streaming.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "felip/data/synthetic.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_service.h"

namespace felip::stream {
namespace {

constexpr double kDecay = 0.5;
constexpr size_t kWindow = 3;

core::FelipConfig FastConfig() {
  core::FelipConfig config;
  config.epsilon = 2.0;
  config.olh_options.seed_pool_size = 512;
  config.seed = 5;
  return config;
}

query::Query HalfRangeQuery() {
  return query::Query(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 15}});
}

// Seals `epoch` as the next epoch of `set`: one full FELIP round at the
// per-epoch config, appended with the next sequence. Collect() does not
// count reports_ingested, so the epoch's report count is its row count.
void SealEpoch(EpochSet& set, const core::FelipConfig& base,
               const data::Dataset& epoch) {
  const uint64_t index = set.newest_seq();
  auto pipeline = std::make_shared<core::FelipPipeline>(
      epoch.attributes(), epoch.num_rows(), EpochConfig(base, index));
  pipeline->Collect(epoch);
  pipeline->Finalize();
  set.Append({.seq = index + 1,
              .reports = epoch.num_rows(),
              .epsilon = base.epsilon,
              .pipeline = std::move(pipeline)});
}

double Mixed(const EpochSet& set, const query::Query& q,
             double decay = kDecay) {
  return set.AnswerWindowed({&q, 1}, 0, decay).value()[0];
}

double Latest(const EpochSet& set, const query::Query& q) {
  return set.AnswerLatest({&q, 1}).value()[0];
}

// Standalone per-epoch answers for epochs [first, last) at the documented
// seed derivation — the reference the window's mixed answer is pinned
// against, bit for bit.
std::vector<double> StandaloneAnswers(const std::vector<data::Dataset>& epochs,
                                      const core::FelipConfig& base,
                                      int first, int last,
                                      const query::Query& q) {
  std::vector<double> answers;
  for (int e = first; e < last; ++e) {
    core::FelipPipeline pipeline(epochs[e].attributes(),
                                 epochs[e].num_rows(), EpochConfig(base, e));
    pipeline.Collect(epochs[e]);
    pipeline.Finalize();
    answers.push_back(pipeline.AnswerQuery(q));
  }
  return answers;
}

TEST(StreamingCollectorTest, TracksEpochCounts) {
  const data::Dataset epoch = data::MakeUniform(5000, 2, 0, 32, 2, 1);
  EpochSet set(kWindow);
  EXPECT_EQ(set.newest_seq(), 0u);
  SealEpoch(set, FastConfig(), epoch);
  SealEpoch(set, FastConfig(), epoch);
  EXPECT_EQ(set.newest_seq(), 2u);
  EXPECT_EQ(set.size(), 2u);
  const EpochSet::BudgetReport budget = set.WindowBudget();
  EXPECT_EQ(budget.reports, 10000u);
  EXPECT_EQ(budget.epochs, 2u);
}

TEST(StreamingCollectorTest, HistoryWindowBoundsMemory) {
  const data::Dataset epoch = data::MakeUniform(2000, 2, 0, 16, 2, 2);
  EpochSet set(kWindow);
  for (int e = 0; e < 7; ++e) SealEpoch(set, FastConfig(), epoch);
  EXPECT_EQ(set.newest_seq(), 7u);
  EXPECT_EQ(set.size(), kWindow);
}

TEST(StreamingCollectorTest, StationaryStreamAnswersAccurately) {
  EpochSet set(kWindow);
  for (int e = 0; e < 3; ++e) {
    SealEpoch(set, FastConfig(), data::MakeUniform(20000, 2, 0, 32, 2, 10 + e));
  }
  EXPECT_NEAR(Mixed(set, HalfRangeQuery()), 0.5, 0.08);
}

TEST(StreamingCollectorTest, AdaptsToDistributionShift) {
  // Uniform epochs followed by strongly skewed epochs: the decayed answer
  // must move toward the new distribution.
  const auto skewed = [](uint64_t n, uint64_t seed) {
    // All mass in the lower half of attr 0.
    std::vector<data::SyntheticAttribute> specs = {
        {.name = "a", .domain = 32, .categorical = false,
         .distribution = data::Distribution::kExponential, .param = 12.0},
        {.name = "b", .domain = 32, .categorical = false,
         .distribution = data::Distribution::kUniform},
    };
    return data::GenerateSynthetic(n, specs, seed);
  };
  EpochSet set(kWindow);
  SealEpoch(set, FastConfig(), data::MakeUniform(20000, 2, 0, 32, 2, 20));
  const double before = Mixed(set, HalfRangeQuery());
  for (int e = 0; e < 3; ++e) {
    SealEpoch(set, FastConfig(), skewed(20000, 30 + e));
  }
  const double after = Mixed(set, HalfRangeQuery());
  EXPECT_NEAR(before, 0.5, 0.1);
  EXPECT_GT(after, 0.8);  // exponential(12) puts ~all mass below 16
}

TEST(StreamingCollectorTest, LatestIgnoresHistory) {
  EpochSet set(kWindow);
  SealEpoch(set, FastConfig(), data::MakeUniform(20000, 2, 0, 32, 2, 40));
  SealEpoch(set, FastConfig(), data::MakeNormal(20000, 2, 0, 32, 2, 41));
  const query::Query center(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 8, .hi = 23}});
  // The normal epoch concentrates mass in the center (> uniform's 0.5);
  // mixing with the uniform epoch pulls the estimate down.
  EXPECT_GT(Latest(set, center), Mixed(set, center));
}

TEST(StreamingCollectorTest, VaryingEpochSizesSupported) {
  // Each epoch plans its own grids for its own population size.
  EpochSet set(kWindow);
  for (const uint64_t n : {3000ull, 12000ull, 800ull, 25000ull}) {
    SealEpoch(set, FastConfig(), data::MakeUniform(n, 2, 0, 32, 2, 60 + n));
  }
  const double estimate = Mixed(set, HalfRangeQuery());
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, 1.0);
  EXPECT_NEAR(estimate, 0.5, 0.15);
}

TEST(StreamingCollectorTest, DecayOneAveragesUniformly) {
  EpochSet set(kWindow);
  SealEpoch(set, FastConfig(), data::MakeUniform(15000, 2, 0, 32, 2, 70));
  SealEpoch(set, FastConfig(), data::MakeUniform(15000, 2, 0, 32, 2, 71));
  const query::Query q = HalfRangeQuery();
  // With decay 1 the mixed answer is the plain mean over the window, which
  // averages the two epochs' independent noise.
  EXPECT_NEAR(Mixed(set, q, 1.0), 0.5, 0.1);
  EXPECT_NEAR(Latest(set, q), 0.5, 0.15);
}

// Reconstructs the exact answer the window must give after eviction:
// standalone per-epoch pipelines over ONLY the retained window, mixed with
// the documented decay weights. Pins the eviction boundary (epochs before
// the window contribute nothing), the per-epoch seed derivation
// (EpochConfig: `felip.seed * 1000003 + epoch_index + 1`), and the
// oldest-first Horner fold (DecayMix), bit for bit.
TEST(StreamingCollectorTest, EvictedEpochsVanishFromTheDecayedEstimate) {
  constexpr int kEpochs = 5;  // kWindow + 2: forces eviction
  constexpr uint64_t kEpochUsers = 4000;

  std::vector<data::Dataset> epochs;
  for (int e = 0; e < kEpochs; ++e) {
    epochs.push_back(data::MakeUniform(kEpochUsers, 2, 0, 32, 2, 100 + e));
  }
  EpochSet set(kWindow);
  for (const data::Dataset& epoch : epochs) SealEpoch(set, FastConfig(), epoch);
  ASSERT_EQ(set.size(), 3u);

  const query::Query q = HalfRangeQuery();
  // Retained window: epochs 2, 3, 4 (oldest first, newest last).
  const std::vector<double> answers =
      StandaloneAnswers(epochs, FastConfig(), 2, kEpochs, q);
  // Semantics: newest weight 1, one decay factor per step back.
  const double semantic =
      (answers[2] + kDecay * answers[1] + kDecay * kDecay * answers[0]) /
      (1.0 + kDecay + kDecay * kDecay);
  EXPECT_NEAR(Mixed(set, q), semantic, 1e-12);
  // Bit-exactness: the window folds exactly like the shared DecayMix.
  EXPECT_DOUBLE_EQ(Mixed(set, q), DecayMix(answers, kDecay));
  EXPECT_DOUBLE_EQ(Latest(set, q), answers[2]);
}

TEST(StreamingCollectorTest, DecayOneIsTheExactMeanOfTheRetainedWindow) {
  constexpr size_t kMaxEpochs = 2;
  constexpr int kEpochs = 4;  // kMaxEpochs + 2
  constexpr uint64_t kEpochUsers = 4000;

  std::vector<data::Dataset> epochs;
  for (int e = 0; e < kEpochs; ++e) {
    epochs.push_back(data::MakeUniform(kEpochUsers, 2, 0, 32, 2, 200 + e));
  }
  EpochSet set(kMaxEpochs);
  for (const data::Dataset& epoch : epochs) SealEpoch(set, FastConfig(), epoch);
  ASSERT_EQ(set.size(), 2u);

  const query::Query q = HalfRangeQuery();
  const std::vector<double> answers =
      StandaloneAnswers(epochs, FastConfig(), 2, kEpochs, q);
  // decay == 1.0: the exact sliding mean, summed oldest-first (the
  // DecayMix fold order).
  EXPECT_DOUBLE_EQ(Mixed(set, q, 1.0), (answers[0] + answers[1]) / 2.0);
}

TEST(StreamingCollectorTest, SingleEpochWindowEqualsLatest) {
  EpochSet set(1);
  for (int e = 0; e < 3; ++e) {
    SealEpoch(set, FastConfig(), data::MakeUniform(4000, 2, 0, 32, 2, 300 + e));
  }
  ASSERT_EQ(set.size(), 1u);
  const query::Query q = HalfRangeQuery();
  // A one-epoch window has nothing to mix: the decayed answer IS the
  // newest epoch's answer, bit for bit (weight 1 / norm 1).
  EXPECT_DOUBLE_EQ(Mixed(set, q), Latest(set, q));
}

// The fold is one multiply per epoch with a running Horner weight, so the
// answer is a pure function of the retained per-epoch answers — identical
// when recomputed, and identical to the shared DecayMix reference for
// every window length (the regression pin for the pow()-per-epoch /
// fold-order bug).
TEST(StreamingCollectorTest, DecayFoldIsBitExactAcrossWindowLengths) {
  constexpr int kEpochs = 8;
  constexpr uint64_t kEpochUsers = 2000;
  constexpr double kQuarterDecay = 0.25;
  std::vector<data::Dataset> epochs;
  for (int e = 0; e < kEpochs; ++e) {
    epochs.push_back(data::MakeUniform(kEpochUsers, 2, 0, 16, 2, 400 + e));
  }
  const query::Query q(
      {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 7}});
  core::FelipConfig base = FastConfig();
  base.seed = 13;
  for (const uint32_t max_epochs : {1u, 3u, 8u}) {
    EpochSet set(max_epochs);
    for (const data::Dataset& epoch : epochs) SealEpoch(set, base, epoch);
    const std::vector<double> answers = StandaloneAnswers(
        epochs, base, kEpochs - static_cast<int>(max_epochs), kEpochs, q);
    const double expected = DecayMix(answers, kQuarterDecay);
    const double first = Mixed(set, q, kQuarterDecay);
    const double second = Mixed(set, q, kQuarterDecay);
    EXPECT_DOUBLE_EQ(first, expected) << "max_epochs " << max_epochs;
    EXPECT_DOUBLE_EQ(first, second) << "max_epochs " << max_epochs;
  }
}

TEST(StreamingCollectorTest, EmptyHistoryIsFailedPreconditionNotACrash) {
  const EpochSet set(kWindow);
  const query::Query q = HalfRangeQuery();
  const StatusOr<std::vector<double>> mixed =
      set.AnswerWindowed({&q, 1}, 0, kDecay);
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(mixed.status().message().find("no epoch"), std::string::npos);
  const StatusOr<std::vector<double>> latest = set.AnswerLatest({&q, 1});
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kFailedPrecondition);
  // The condition is retryable for a service client: the first epoch seal
  // satisfies it.
  EXPECT_TRUE(IsRetryable(latest.status().code()));
}

TEST(StreamingCollectorDeathTest, RejectsSchemaMismatch) {
  EpochSet set(kWindow);
  SealEpoch(set, FastConfig(), data::MakeUniform(100, 2, 0, 16, 2, 7));
  EXPECT_DEATH(
      SealEpoch(set, FastConfig(), data::MakeUniform(100, 2, 0, 32, 2, 8)),
      "share one schema");
}

// Seals one small epoch, then asks for a window mix at `decay`.
void AnswerAtDecay(double decay) {
  EpochSet set(kWindow);
  SealEpoch(set, FastConfig(), data::MakeUniform(100, 2, 0, 16, 2, 9));
  const query::Query q = HalfRangeQuery();
  (void)set.AnswerWindowed({&q, 1}, 0, decay);
}

TEST(StreamingCollectorDeathTest, RejectsZeroDecay) {
  EXPECT_DEATH(AnswerAtDecay(0.0), "decay must be in");
}

TEST(StreamingCollectorDeathTest, RejectsNegativeDecay) {
  EXPECT_DEATH(AnswerAtDecay(-0.5), "decay must be in");
}

TEST(StreamingCollectorDeathTest, RejectsDecayAboveOne) {
  EXPECT_DEATH(AnswerAtDecay(1.5), "decay must be in");
}

TEST(StreamingCollectorDeathTest, RejectsZeroWindow) {
  EXPECT_DEATH(EpochSet(0), "window must hold >= 1 epoch");
}

}  // namespace
}  // namespace felip::stream
