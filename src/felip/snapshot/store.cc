#include "felip/snapshot/store.h"

#include <algorithm>

#include "felip/common/check.h"

namespace felip::snapshot {

SnapshotStore::SnapshotStore(std::string dir, size_t keep_last_n)
    : files_(std::move(dir), "snapshot-", {".felip"}),
      keep_last_n_(keep_last_n) {
  FELIP_CHECK_MSG(keep_last_n_ >= 1, "keep_last_n must be at least 1");
  files_.Create();
  next_seq_ = files_.ResumeSequence();
}

StatusOr<std::string> SnapshotStore::Write(const std::vector<uint8_t>& bytes) {
  FELIP_ASSIGN_OR_RETURN(std::string path,
                         files_.Commit(next_seq_, bytes, keep_last_n_));
  ++next_seq_;
  return path;
}

std::vector<std::string> SnapshotStore::ListNewestFirst() const {
  std::vector<std::string> paths = files_.Paths();
  std::reverse(paths.begin(), paths.end());
  return paths;
}

}  // namespace felip::snapshot
