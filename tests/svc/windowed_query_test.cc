// The served epoch window: wire::WindowedQuery frames answered from a
// stream::EpochSet through svc::QueryServer must be BIT-IDENTICAL to the
// in-process window (which is itself bit-identical to per-epoch
// pipelines mixed by DecayMix, see tests/stream/epoch_service_test.cc). Before the first seal, both
// windowed and plain queries answer the retryable kFailedPrecondition —
// and succeed through the client's retry loop once a seal lands. Windowed
// frames to a server without an epoch window are terminally invalid, and
// every response carries the server's seal progress.

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/streaming.h"
#include "felip/svc/loopback.h"
#include "felip/svc/query_service.h"
#include "felip/svc/simulator.h"
#include "felip/svc/sink.h"
#include "felip/svc/tcp.h"
#include "felip/wire/wire.h"

namespace felip::svc {
namespace {

core::FelipConfig BaseConfig() {
  core::FelipConfig felip;
  felip.epsilon = 2.0;
  felip.olh_options.seed_pool_size = 512;
  felip.seed = 33;
  return felip;
}

std::vector<query::Query> TestQueries() {
  return {
      query::Query({{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 15}}),
      query::Query({{.attr = 1, .op = query::Op::kBetween, .lo = 4, .hi = 27}}),
      query::Query(
          {{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 7},
           {.attr = 1, .op = query::Op::kBetween, .lo = 16, .hi = 31}}),
  };
}

// One sealed epoch built through the networked report path (simulator +
// sink) under the per-epoch config, finalized to queryable — what the
// rotation service appends after SealEpoch.
stream::SealedEpoch MakeSealedEpoch(const data::Dataset& dataset,
                                    uint64_t epoch_index) {
  const core::FelipConfig config =
      stream::EpochConfig(BaseConfig(), epoch_index);
  auto pipeline = std::make_unique<core::FelipPipeline>(
      dataset.attributes(), dataset.num_rows(), config);
  std::vector<wire::GridConfigMessage> grid_configs;
  for (uint32_t g = 0; g < pipeline->num_groups(); ++g) {
    grid_configs.push_back(wire::MakeGridConfig(
        *pipeline, pipeline->schema(), g, pipeline->per_grid_epsilon(),
        config.protocol_options()));
  }
  SimulatorOptions options;
  options.seed = config.seed;
  options.partitioning = config.partitioning;
  const PopulationSimulator simulator(grid_configs, options);
  PipelineSink sink(pipeline.get());
  const auto sent = simulator.Run(
      dataset, [&](const std::vector<wire::ReportMessage>& batch) {
        sink.IngestBatch(batch);
        return true;
      });
  EXPECT_TRUE(sent.has_value());
  pipeline->FinishIngest();
  pipeline->Finalize();
  stream::SealedEpoch epoch;
  epoch.seq = epoch_index + 1;
  epoch.reports = dataset.num_rows();
  epoch.epsilon = config.epsilon;
  epoch.pipeline = std::move(pipeline);
  return epoch;
}

data::Dataset EpochDataset(int epoch_index) {
  return data::MakeUniform(2500, 2, 0, 32, 2, 700 + epoch_index);
}

TEST(WindowedQueryTest, LoopbackWindowBitIdenticalToInProcess) {
  stream::EpochSet epochs(8);
  for (int e = 0; e < 4; ++e) {
    epochs.Append(MakeSealedEpoch(EpochDataset(e), e));
  }
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  const std::vector<query::Query> queries = TestQueries();
  for (const uint32_t window : {0u, 1u, 2u, 4u, 16u}) {
    for (const double decay : {1.0, 0.5, 0.25}) {
      const QueryOutcome outcome =
          client.AnswerWindowed(queries, window, decay);
      ASSERT_TRUE(outcome.ok())
          << "window=" << window << " decay=" << decay << " "
          << outcome.status.ToString();
      EXPECT_EQ(outcome.sealed_epochs, 4u);
      const StatusOr<std::vector<double>> expected = epochs.AnswerWindowed(
          std::span<const query::Query>(queries), window, decay);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(outcome.answers.size(), expected->size());
      for (size_t q = 0; q < expected->size(); ++q) {
        // EXPECT_EQ on doubles: the wire must not perturb a single bit.
        EXPECT_EQ(outcome.answers[q], (*expected)[q])
            << "window=" << window << " decay=" << decay << " query=" << q;
      }
    }
  }
  EXPECT_EQ(server.windowed_answered(), 15u);
  server.Stop();
}

TEST(WindowedQueryTest, TcpWindowBitIdenticalToLoopback) {
  stream::EpochSet epochs(8);
  for (int e = 0; e < 2; ++e) {
    epochs.Append(MakeSealedEpoch(EpochDataset(e), e));
  }
  TcpTransport transport;
  QueryServer server(&transport, "127.0.0.1:0", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());
  const std::vector<query::Query> queries = TestQueries();
  const QueryOutcome outcome = client.AnswerWindowed(queries, 0, 0.5);
  ASSERT_TRUE(outcome.ok()) << outcome.status.ToString();
  const StatusOr<std::vector<double>> expected = epochs.AnswerWindowed(
      std::span<const query::Query>(queries), 0, 0.5);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(outcome.answers.size(), expected->size());
  for (size_t q = 0; q < expected->size(); ++q) {
    EXPECT_EQ(outcome.answers[q], (*expected)[q]) << "query " << q;
  }
  server.Stop();
}

TEST(WindowedQueryTest, PlainBatchServedFromNewestEpoch) {
  // In epoch mode (no pipeline), a plain QueryBatch frame answers from
  // the newest sealed epoch — the windowed service subsumes the plain
  // protocol rather than breaking old clients.
  stream::EpochSet epochs(8);
  for (int e = 0; e < 3; ++e) {
    epochs.Append(MakeSealedEpoch(EpochDataset(e), e));
  }
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  const std::vector<query::Query> queries = TestQueries();
  const QueryOutcome outcome = client.AnswerQueries(queries);
  ASSERT_TRUE(outcome.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.sealed_epochs, 3u);
  const StatusOr<std::vector<double>> expected = epochs.AnswerLatest(
      std::span<const query::Query>(queries));
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(outcome.answers.size(), expected->size());
  for (size_t q = 0; q < expected->size(); ++q) {
    EXPECT_EQ(outcome.answers[q], (*expected)[q]) << "query " << q;
  }
  server.Stop();
}

TEST(WindowedQueryTest, BeforeFirstSealBothProtocolsRetry) {
  stream::EpochSet epochs(8);
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());

  QueryClientOptions client_options;
  client_options.max_attempts = 3;
  QueryClient client(&transport, server.endpoint(), client_options);
  const std::vector<query::Query> queries = TestQueries();

  const QueryOutcome windowed = client.AnswerWindowed(queries, 0, 1.0);
  EXPECT_FALSE(windowed.ok());
  EXPECT_EQ(windowed.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(IsRetryable(windowed.status.code()));
  EXPECT_EQ(windowed.attempts, 3);
  EXPECT_EQ(windowed.sealed_epochs, 0u);

  const QueryOutcome plain = client.AnswerQueries(queries);
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(server.batches_not_ready(), 6u);
  server.Stop();
}

TEST(WindowedQueryTest, RetryLoopSucceedsOnceTheFirstSealLands) {
  // The pacing contract end to end: a client that starts polling before
  // any epoch exists keeps retrying kFailedPrecondition and converges on
  // the answer as soon as the rotation path appends the first seal.
  stream::EpochSet epochs(8);
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());

  // Built before the client starts so the seal itself is off the
  // client's critical path (Append is thread-safe against answering).
  stream::SealedEpoch first = MakeSealedEpoch(EpochDataset(0), 0);

  QueryClientOptions client_options;
  client_options.max_attempts = 64;
  client_options.backoff_initial_ms = 1;
  QueryClient client(&transport, server.endpoint(), client_options);
  const std::vector<query::Query> queries = TestQueries();

  QueryOutcome outcome;
  std::thread poller([&] { outcome = client.AnswerWindowed(queries, 0, 1.0); });
  // Let at least one kFailedPrecondition round-trip happen, then seal.
  while (server.batches_not_ready() == 0) std::this_thread::yield();
  epochs.Append(std::move(first));
  poller.join();

  ASSERT_TRUE(outcome.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.attempts, 1);
  EXPECT_EQ(outcome.sealed_epochs, 1u);
  const StatusOr<std::vector<double>> expected = epochs.AnswerWindowed(
      std::span<const query::Query>(queries), 0, 1.0);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(outcome.answers.size(), expected->size());
  for (size_t q = 0; q < expected->size(); ++q) {
    EXPECT_EQ(outcome.answers[q], (*expected)[q]) << "query " << q;
  }
  server.Stop();
}

TEST(WindowedQueryTest, WindowedFrameToPipelineServerTerminallyInvalid) {
  // A server without an epoch window will never grow one: retrying is
  // pointless, so the rejection must be terminal, not kFailedPrecondition.
  const data::Dataset dataset = EpochDataset(0);
  const core::FelipPipeline pipeline = core::RunFelip(dataset, BaseConfig());
  LoopbackTransport transport;
  QueryServer server(&transport, "plain", &pipeline);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  const QueryOutcome outcome = client.AnswerWindowed(TestQueries(), 0, 1.0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.sealed_epochs, 0u);
  EXPECT_EQ(server.batches_invalid(), 1u);

  // The same server still answers its plain protocol, and its responses
  // report no seal progress.
  const QueryOutcome plain = client.AnswerQueries(TestQueries());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.sealed_epochs, 0u);
  server.Stop();
}

TEST(WindowedQueryTest, OutOfDomainWindowedQueryRejectedWithIndex) {
  stream::EpochSet epochs(8);
  epochs.Append(MakeSealedEpoch(EpochDataset(0), 0));
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());

  // The schema's numerical domain is 32, so hi == 32 is one past the end;
  // the server must blame exactly the offending query.
  std::vector<query::Query> batch = TestQueries();
  batch.push_back(
      query::Query({{.attr = 0, .op = query::Op::kBetween, .lo = 0, .hi = 32}}));
  const QueryOutcome outcome = client.AnswerWindowed(batch, 0, 1.0);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outcome.bad_query, 3u);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(server.windowed_answered(), 0u);
  server.Stop();
}

TEST(WindowedQueryTest, SealProgressGrowsAcrossResponses) {
  stream::EpochSet epochs(8);
  epochs.Append(MakeSealedEpoch(EpochDataset(0), 0));
  LoopbackTransport transport;
  QueryServer server(&transport, "windowed", /*pipeline=*/nullptr, {},
                     &epochs);
  ASSERT_TRUE(server.Start());
  QueryClient client(&transport, server.endpoint());
  const std::vector<query::Query> queries = TestQueries();

  EXPECT_EQ(client.AnswerWindowed(queries, 0, 1.0).sealed_epochs, 1u);
  epochs.Append(MakeSealedEpoch(EpochDataset(1), 1));
  EXPECT_EQ(client.AnswerWindowed(queries, 0, 1.0).sealed_epochs, 2u);
  server.Stop();
}

}  // namespace
}  // namespace felip::svc
