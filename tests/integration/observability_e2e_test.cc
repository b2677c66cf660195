// End-to-end observability acceptance: after a full pipeline run, a wire
// round-trip, a snapshot round-trip, one sealed stream epoch, and an
// eval-harness run, the default registry's RenderText exposition must
// contain counters and spans from every instrumented subsystem (core, fo,
// wire, snapshot, stream, eval).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/common/rng.h"
#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/eval/harness.h"
#include "felip/obs/metrics.h"
#include "felip/query/generator.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/streaming.h"
#include "felip/wire/wire.h"

namespace felip {
namespace {

#ifndef FELIP_OBS_NOOP

TEST(ObservabilityE2eTest, EverySubsystemReportsToTheDefaultRegistry) {
  obs::Registry& registry = obs::Registry::Default();
  registry.Reset();

  const data::Dataset dataset =
      data::MakeIpumsLike(800, 4, 20, 6, /*seed=*/9);
  core::FelipConfig config;
  config.epsilon = 1.0;
  config.seed = 3;

  // core + fo: collection, aggregation, estimation, queries.
  const core::FelipPipeline pipeline = core::RunFelip(dataset, config);
  Rng qrng(11);
  const std::vector<query::Query> queries = query::GenerateQueries(
      dataset, 4, {.dimension = 2, .selectivity = 0.5}, qrng);
  for (const query::Query& q : queries) pipeline.AnswerQuery(q);

  // wire: query-batch round-trip.
  ASSERT_TRUE(wire::DecodeQueryBatch(wire::EncodeQueryBatch(queries)).ok());

  // snapshot: a finalized pipeline file round-trip.
  const std::string snapshot_path =
      ::testing::TempDir() + "/felip_observability.felip";
  ASSERT_TRUE(pipeline.SaveSnapshot(snapshot_path).ok());
  ASSERT_TRUE(core::FelipPipeline::LoadSnapshot(snapshot_path).ok());
  std::remove(snapshot_path.c_str());

  // stream: one sealed epoch, answered from the window.
  stream::EpochSet epochs(4);
  auto epoch = std::make_shared<core::FelipPipeline>(
      dataset.attributes(), dataset.num_rows(),
      stream::EpochConfig(config, 0));
  epoch->Collect(dataset);
  epoch->Finalize();
  epochs.Append({.seq = 1,
                 .reports = dataset.num_rows(),
                 .epsilon = config.epsilon,
                 .pipeline = std::move(epoch)});
  ASSERT_TRUE(epochs.AnswerWindowed(queries, 0, 0.5).ok());

  // eval: one harness run with MAE/MSE gauges.
  std::vector<double> truths;
  for (const query::Query& q : queries) {
    truths.push_back(query::TrueAnswer(dataset, q));
  }
  eval::ExperimentParams params;
  params.epsilon = 1.0;
  params.seed = 3;
  eval::RunMethodMae("OHG", dataset, queries, truths, params);

  // Counters from every instrumented subsystem.
  EXPECT_GT(registry.CounterValue("felip_core_reports_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_core_cells_estimated_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_core_queries_total"), 0u);
  EXPECT_GT(registry.CounterValue("felip_wire_decode_bytes_total"), 0u);
  EXPECT_EQ(registry.CounterValue("felip_wire_malformed_total"), 0u);
  EXPECT_GT(registry.GaugeValue("felip_snapshot_bytes"), 0.0);
  EXPECT_EQ(registry.GaugeValue("felip_epoch_segments_retained"), 1.0);
  EXPECT_GT(registry.HistogramCount("felip_epoch_answer_windowed_seconds"),
            0u);
  EXPECT_EQ(registry.CounterValue("felip_eval_runs_total"), 1u);
  EXPECT_GT(registry.HistogramCount("felip_eval_query_seconds"), 0u);
  // At least one FO server aggregated reports.
  const uint64_t fo_reports =
      registry.CounterValue("felip_fo_grr_reports_total") +
      registry.CounterValue("felip_fo_olh_reports_total") +
      registry.CounterValue("felip_fo_oue_reports_total");
  EXPECT_GT(fo_reports, 0u);

  // The text exposition carries all subsystem prefixes and span nesting.
  const std::string text = registry.RenderText();
  for (const char* needle :
       {"felip_core_reports_total", "felip_core_collect_seconds",
        "felip_wire_decode_bytes_total", "felip_snapshot_write_seconds",
        "felip_epoch_segments_retained",
        "felip_eval_runs_total", "felip_span_count_total",
        "felip_core_collect/felip_core_flush"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << "missing " << needle;
  }

  // Span nesting: the flush span sits under the collect span.
  bool nested_flush = false;
  for (const std::string& path : registry.SpanPaths()) {
    if (path.find("felip_core_collect/felip_core_flush") !=
        std::string::npos) {
      nested_flush = true;
    }
  }
  EXPECT_TRUE(nested_flush);
}

#else

TEST(ObservabilityE2eTest, NoopBuildRendersPlaceholder) {
  EXPECT_EQ(obs::Registry::Default().RenderJson(), "{}");
}

#endif  // FELIP_OBS_NOOP

}  // namespace
}  // namespace felip
