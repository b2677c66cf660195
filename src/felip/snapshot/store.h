// On-disk snapshot store: atomic commits and keep-last-N rotation.
//
// A SnapshotStore owns one directory of snapshot files named
// snapshot-<seq>.felip, kept by the shared sequenced-file discipline
// (felip/common/sequenced_dir.h, which also states what a commit
// survives): atomic tmp + rename commits, a sequence resumed past
// existing files, and the newest keep_last_n files kept after each
// commit.
//
// Reading is recovery-oriented: ListNewestFirst() enumerates candidates,
// and callers walk them newest to oldest until one verifies (see
// felip/snapshot/checkpoint.h), so a corrupted newest snapshot degrades to
// the previous rotation instead of failing recovery outright.

#ifndef FELIP_SNAPSHOT_STORE_H_
#define FELIP_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "felip/common/sequenced_dir.h"
#include "felip/common/status.h"

namespace felip::snapshot {

class SnapshotStore {
 public:
  // `dir` is created if absent. `keep_last_n` >= 1 bounds how many
  // committed snapshots survive rotation.
  SnapshotStore(std::string dir, size_t keep_last_n = 3);

  // Commits `bytes` as the next snapshot in sequence and rotates old
  // files. Returns the committed file's path.
  StatusOr<std::string> Write(const std::vector<uint8_t>& bytes);

  // Absolute-ordered snapshot paths, newest (highest sequence) first.
  std::vector<std::string> ListNewestFirst() const;

  const std::string& dir() const { return files_.dir(); }

 private:
  SequencedDir files_;
  size_t keep_last_n_;
  uint64_t next_seq_;
};

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_STORE_H_
