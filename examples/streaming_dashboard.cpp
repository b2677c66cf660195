// Streaming dashboard: a service tracks "fraction of sessions with high
// latency AND premium tier" over time. Users arrive in daily epochs, each
// reports once under LDP, and the dashboard answers from the decayed
// window of sealed epochs. Mid-simulation the workload shifts (an
// incident raises latency), and the windowed estimate tracks it.
//
//   $ ./build/examples/streaming_dashboard

#include <cstdio>
#include <memory>
#include <vector>

#include "felip/core/felip.h"
#include "felip/data/synthetic.h"
#include "felip/query/query.h"
#include "felip/stream/epoch_service.h"
#include "felip/stream/streaming.h"

int main() {
  using namespace felip;

  // Two attributes: session latency bucket (numerical, 0..63) and account
  // tier (categorical, 4 values).
  const auto make_epoch = [](uint64_t n, double latency_skew,
                             uint64_t seed) {
    const std::vector<data::SyntheticAttribute> specs = {
        {.name = "latency", .domain = 64, .categorical = false,
         .distribution = data::Distribution::kExponential,
         .param = latency_skew},
        {.name = "tier", .domain = 4, .categorical = true,
         .distribution = data::Distribution::kZipf, .param = 1.0},
    };
    return data::GenerateSynthetic(n, specs, seed);
  };

  core::FelipConfig base;
  base.epsilon = 1.0;
  base.default_selectivity = 0.4;
  constexpr double kDecay = 0.5;
  // The newest six days; older epochs are evicted.
  stream::EpochSet window(6);

  // "High latency AND premium tier" — latency in the top quarter, tier 0.
  const std::vector<query::Query> alert_query = {query::Query({
      {.attr = 0, .op = query::Op::kBetween, .lo = 48, .hi = 63},
      {.attr = 1, .op = query::Op::kEquals, .lo = 0, .hi = 0},
  })};

  std::printf("%-6s %12s %12s %12s\n", "day", "stream est", "latest est",
              "epoch truth");
  for (uint64_t day = 0; day < 10; ++day) {
    // Days 0-4: healthy (strong low-latency skew). Days 5-9: incident —
    // latencies flatten out, pushing mass into the alert range.
    const double skew = day < 5 ? 8.0 : 1.0;
    const data::Dataset epoch = make_epoch(40000, skew, 100 + day);

    // One FELIP round per epoch, at the per-epoch derived config, sealed
    // into the window as sequence day + 1.
    auto pipeline = std::make_shared<core::FelipPipeline>(
        epoch.attributes(), epoch.num_rows(), stream::EpochConfig(base, day));
    pipeline->Collect(epoch);
    pipeline->Finalize();
    window.Append({.seq = day + 1,
                   .reports = epoch.num_rows(),
                   .epsilon = base.epsilon,
                   .pipeline = std::move(pipeline)});

    const StatusOr<std::vector<double>> mixed =
        window.AnswerWindowed(alert_query, 0, kDecay);
    const StatusOr<std::vector<double>> latest =
        window.AnswerLatest(alert_query);
    if (!mixed.ok() || !latest.ok()) {
      std::fprintf(stderr, "window query failed\n");
      return 1;
    }
    std::printf("%-6llu %12.4f %12.4f %12.4f\n",
                static_cast<unsigned long long>(day), (*mixed)[0],
                (*latest)[0], query::TrueAnswer(epoch, alert_query[0]));
  }
  std::printf("\nthe stream estimate lags the shift by design (decay=%.1f) "
              "while smoothing per-epoch LDP noise.\n",
              kDecay);
  return 0;
}
