#include "felip/stream/epoch_store.h"

#include "felip/common/check.h"

namespace felip::stream {

EpochStore::EpochStore(std::string dir, size_t keep_last_n)
    : files_(std::move(dir), "epoch-", {".felip"}),
      keep_last_n_(keep_last_n) {
  FELIP_CHECK_MSG(keep_last_n_ >= 1, "keep_last_n must be at least 1");
  files_.Create();
  next_seq_ = files_.ResumeSequence();
}

StatusOr<std::string> EpochStore::Write(uint64_t seq,
                                        const core::FelipPipeline& pipeline,
                                        std::span<const uint64_t> drained_keys,
                                        const core::SnapshotOptions& options) {
  FELIP_CHECK_MSG(seq >= next_seq_,
                  "epochs must seal in increasing sequence");
  FELIP_CHECK_MSG(pipeline.state() == core::PipelineState::kQueryable,
                  "only finalized pipelines seal as epochs");
  FELIP_ASSIGN_OR_RETURN(
      std::string path,
      files_.Commit(seq,
                    snapshot::PipelineCodec::Encode(pipeline, options,
                                                    drained_keys, seq),
                    keep_last_n_));
  next_seq_ = seq + 1;
  return path;
}

LoadedEpochs EpochStore::LoadAll() const {
  LoadedEpochs loaded;
  for (const SequencedDir::File& file : files_.List()) {
    const StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(file.path);
    if (!bytes.ok()) {
      ++loaded.files_skipped;
      continue;
    }
    StatusOr<snapshot::RecoveredPipeline> epoch =
        snapshot::PipelineCodec::Decode(*bytes);
    // The file name is untrusted; the sealed kEpoch section is the
    // identity, so a renamed file (or a plain snapshot, which has no
    // kEpoch section) never impersonates an epoch.
    if (!epoch.ok() || epoch->epoch_seq != file.seq ||
        epoch->pipeline.state() != core::PipelineState::kQueryable) {
      ++loaded.files_skipped;
      continue;
    }
    loaded.epochs.push_back(*std::move(epoch));
  }
  return loaded;
}

std::vector<std::string> EpochStore::ListOldestFirst() const {
  return files_.Paths();
}

}  // namespace felip::stream
