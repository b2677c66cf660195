// On-disk store for sealed epochs.
//
// The service tier's durable epoch window (streaming.h, epoch_service.h)
// seals each finished epoch's pipeline into one immutable
// file, epoch-<seq>.felip. The file is a plain PipelineCodec snapshot
// (felip/snapshot/pipeline_snapshot.h) of the finalized (kQueryable)
// pipeline plus the batch dedup keys drained into that epoch, with one
// extra kEpoch section carrying `seq`. The snapshot's own sections hold
// the rest: reports are kState's reports_ingested, the privacy budget is
// kConfig's epsilon. A restarted server can therefore answer windowed
// queries from the file set and recognize resent batches the sealed
// epochs already counted.
//
// EpochStore keeps the shared sequenced-file discipline
// (felip/common/sequenced_dir.h, which also states what a commit
// survives): atomic tmp + rename commits, keep-last-N compaction after
// each seal, and a sequence resumed past existing files so a restart
// never clobbers a committed epoch. Reading is recovery-oriented:
// LoadAll() decodes every file that verifies and counts the ones that do
// not, so one damaged file costs one epoch of history, not the window.

#ifndef FELIP_STREAM_EPOCH_STORE_H_
#define FELIP_STREAM_EPOCH_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "felip/common/sequenced_dir.h"
#include "felip/common/status.h"
#include "felip/core/felip.h"
#include "felip/snapshot/pipeline_snapshot.h"

namespace felip::stream {

// Everything LoadAll could recover from an epoch directory.
struct LoadedEpochs {
  // Oldest first (ascending seq). Each is kQueryable, with epoch_seq
  // equal to its file's sequence and the dedup keys it was sealed with.
  std::vector<snapshot::RecoveredPipeline> epochs;
  size_t files_skipped = 0;  // present but damaged / not a sealed epoch
};

class EpochStore {
 public:
  // `dir` is created if absent. `keep_last_n` >= 1 bounds how many sealed
  // epochs survive compaction — it should be at least the query window,
  // or windowed answers lose their oldest epochs to compaction.
  explicit EpochStore(std::string dir, size_t keep_last_n = 8);

  // Commits the kQueryable `pipeline` with `drained_keys` as epoch `seq`
  // and compacts epochs beyond keep_last_n; returns the committed file's
  // path. `seq` must be >= next_seq() — seals are sequential, but a
  // failed commit may leave a gap the next seal skips over (degraded
  // durability for that one epoch, never a clobbered committed file).
  StatusOr<std::string> Write(uint64_t seq,
                              const core::FelipPipeline& pipeline,
                              std::span<const uint64_t> drained_keys,
                              const core::SnapshotOptions& options = {});

  // Decodes every verifiable epoch in the directory, oldest first.
  // Damaged files are skipped and counted, never fatal.
  LoadedEpochs LoadAll() const;

  // Absolute-ordered epoch file paths, oldest (lowest sequence) first.
  std::vector<std::string> ListOldestFirst() const;

  // The sequence the next sealed epoch will take; equivalently, one past
  // the highest sequence ever committed to this directory (compaction
  // never lowers it because the newest epoch always survives).
  uint64_t next_seq() const { return next_seq_; }

  const std::string& dir() const { return files_.dir(); }

 private:
  SequencedDir files_;
  size_t keep_last_n_;
  uint64_t next_seq_;
};

}  // namespace felip::stream

#endif  // FELIP_STREAM_EPOCH_STORE_H_
