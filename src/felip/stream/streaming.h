// Streaming FELIP — the paper's closing future-work direction ("leverage
// low-dimensional grids to answer queries over data streams").
//
// Users arrive over time in epochs and each user reports exactly once, in
// their arrival epoch, so the per-user privacy guarantee is the plain
// eps-LDP of that epoch's collection (no budget accumulation over time).
// The aggregator runs one FELIP round per epoch and answers queries against
// an exponentially decayed mixture of the per-epoch estimates:
//
//   answer_t(q) = Σ_e decay^(t-e) · answer_e(q) / Σ_e decay^(t-e)
//
// keeping only the most recent rounds, which bounds memory and lets the
// estimate track drifting populations.
//
// The epoch window itself is EpochSet (epoch_service.h): in process, seal
// each epoch's finalized pipeline into it and answer with AnswerWindowed;
// the service tier does the same behind EpochRotationService and on-disk
// epoch files. Every layer derives per-epoch configs and mixes answers
// through the two functions below, so served windowed answers are
// bit-identical to in-process ones over the same arrivals.

#ifndef FELIP_STREAM_STREAMING_H_
#define FELIP_STREAM_STREAMING_H_

#include <cstdint>
#include <span>

#include "felip/core/felip.h"

namespace felip::stream {

// The per-epoch collection config for epoch `epoch_index` (0-based): the
// base config with the seed decorrelated per epoch while keeping runs
// reproducible. Every layer that replays an epoch round — the epoch
// rotation service, in-process EpochSet users, and the population
// simulator in felip_client — must derive seeds through this one
// function, or served answers stop being bit-identical to in-process ones.
core::FelipConfig EpochConfig(const core::FelipConfig& base,
                              uint64_t epoch_index);

// Decay-weighted mixture of per-epoch answers, oldest epoch first. Folded
// as a Horner evaluation with a running weight — one multiply per epoch, no
// pow() — so long windows neither underflow to subnormals nor depend on the
// fold direction:
//
//   total = total·decay + answer_e;  norm = norm·decay + 1
//
// after which the newest epoch carries weight 1 and epoch t-k carries
// decay^k exactly as documented above. Requires a nonempty span and
// decay ∈ (0, 1] (callers validate; EpochSet::AnswerWindowed checks it).
double DecayMix(std::span<const double> answers_oldest_first, double decay);

}  // namespace felip::stream

#endif  // FELIP_STREAM_STREAMING_H_
