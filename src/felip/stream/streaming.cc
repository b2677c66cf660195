#include "felip/stream/streaming.h"

#include "felip/common/check.h"

namespace felip::stream {

core::FelipConfig EpochConfig(const core::FelipConfig& base,
                              uint64_t epoch_index) {
  core::FelipConfig felip = base;
  // Decorrelate epoch randomness while keeping runs reproducible.
  felip.seed = felip.seed * 1000003 + epoch_index + 1;
  return felip;
}

double DecayMix(std::span<const double> answers_oldest_first, double decay) {
  FELIP_CHECK_MSG(!answers_oldest_first.empty(),
                  "DecayMix over an empty window");
  double total = 0.0;
  double norm = 0.0;
  for (const double answer : answers_oldest_first) {
    total = total * decay + answer;
    norm = norm * decay + 1.0;
  }
  return total / norm;
}

}  // namespace felip::stream
