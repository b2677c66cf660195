// A finalized (kQueryable) pipeline through the FSNP snapshot: the
// encoded bytes and the file round trip must answer every query bit for
// bit like the pipeline they were taken from, and damaged, truncated,
// foreign or missing input must fail cleanly.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/data/synthetic.h"
#include "felip/query/generator.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/wire/wire.h"

namespace felip::snapshot {
namespace {

struct Fixture {
  data::Dataset dataset;
  core::FelipPipeline pipeline;
};

Fixture MakeFixture() {
  data::Dataset ds = data::MakeIpumsLike(20000, 4, 32, 4, 1);
  core::FelipConfig config;
  config.epsilon = 1.5;
  config.default_selectivity = 0.4;
  config.olh_options.seed_pool_size = 512;
  config.seed = 9;
  core::FelipPipeline pipeline = core::RunFelip(ds, config);
  return {std::move(ds), std::move(pipeline)};
}

std::vector<uint8_t> Encode(const core::FelipPipeline& pipeline) {
  return PipelineCodec::Encode(pipeline, {}, {});
}

TEST(SnapshotTest, EncodeDecodeAnswersIdentically) {
  const Fixture f = MakeFixture();
  const StatusOr<RecoveredPipeline> restored =
      PipelineCodec::Decode(Encode(f.pipeline));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->pipeline.state(), core::PipelineState::kQueryable);
  EXPECT_EQ(restored->pipeline.num_groups(), f.pipeline.num_groups());

  Rng rng(2);
  const auto queries = query::GenerateQueries(
      f.dataset, 10, {.dimension = 3, .selectivity = 0.4}, rng);
  for (const query::Query& q : queries) {
    EXPECT_EQ(restored->pipeline.AnswerQuery(q), f.pipeline.AnswerQuery(q));
  }
}

TEST(SnapshotTest, MarginalsSurviveRoundTrip) {
  const Fixture f = MakeFixture();
  const StatusOr<RecoveredPipeline> restored =
      PipelineCodec::Decode(Encode(f.pipeline));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (uint32_t a = 0; a < f.dataset.num_attributes(); ++a) {
    EXPECT_EQ(restored->pipeline.EstimateMarginal(a),
              f.pipeline.EstimateMarginal(a))
        << "attribute " << a;
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  const Fixture f = MakeFixture();
  const std::string path = ::testing::TempDir() + "/felip_snapshot.felip";
  ASSERT_TRUE(f.pipeline.SaveSnapshot(path).ok());
  const StatusOr<core::FelipPipeline> restored =
      core::FelipPipeline::LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const query::Query q({{.attr = 0, .op = query::Op::kBetween, .lo = 4,
                         .hi = 20}});
  EXPECT_EQ(restored->AnswerQuery(q), f.pipeline.AnswerQuery(q));
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptionDetected) {
  const Fixture f = MakeFixture();
  std::vector<uint8_t> encoded = Encode(f.pipeline);
  encoded[encoded.size() / 2] ^= 0x01;
  EXPECT_FALSE(PipelineCodec::Decode(encoded).ok());
}

TEST(SnapshotTest, TruncationDetected) {
  const Fixture f = MakeFixture();
  std::vector<uint8_t> encoded = Encode(f.pipeline);
  encoded.resize(encoded.size() - 9);
  EXPECT_FALSE(PipelineCodec::Decode(encoded).ok());
}

// A checksum-valid frame of another format (here a wire report) is not
// a snapshot.
TEST(SnapshotTest, WrongKindRejected) {
  wire::ReportMessage r;
  r.protocol = fo::Protocol::kGrr;
  EXPECT_FALSE(PipelineCodec::Decode(wire::EncodeReport(r)).ok());
}

TEST(SnapshotTest, MissingFileFails) {
  EXPECT_FALSE(
      core::FelipPipeline::LoadSnapshot("/definitely/not/here.snapshot").ok());
}

TEST(SnapshotTest, QuadrantFlagSurvives) {
  data::Dataset ds = data::MakeNormal(15000, 3, 0, 16, 2, 3);
  core::FelipConfig config;
  config.epsilon = 2.0;
  config.lambda_quadrant_fit = true;
  config.seed = 4;
  const core::FelipPipeline pipeline = core::RunFelip(ds, config);
  const StatusOr<RecoveredPipeline> restored =
      PipelineCodec::Decode(Encode(pipeline));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->pipeline.config().lambda_quadrant_fit);
  // A full-domain λ=3 query distinguishes the fits: quadrant ≈ 1.
  const query::Query q({
      {.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 15},
      {.attr = 1, .op = query::Op::kBetween, .lo = 0, .hi = 15},
      {.attr = 2, .op = query::Op::kBetween, .lo = 0, .hi = 15},
  });
  EXPECT_NEAR(restored->pipeline.AnswerQuery(q), 1.0, 0.05);
  EXPECT_EQ(restored->pipeline.AnswerQuery(q), pipeline.AnswerQuery(q));
}

}  // namespace
}  // namespace felip::snapshot
