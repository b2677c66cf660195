// Sequenced-file directories: the one on-disk discipline under the
// snapshot store, the epoch store and the report log.
//
// A store owns one directory of files named <prefix><seq><suffix>, seq a
// canonical decimal >= 1 (digits only, no leading zero, no uint64
// overflow). Any other name is foreign: never listed, resumed past or
// pruned, so neither an operator's scratch file nor a stray
// snapshot-01.felip can stand in for snapshot-1.felip. A store may spell
// one sequence with several suffixes, one per file state (the report
// log's .flog and .open); the first is the committed spelling. Listing
// and resuming see every spelling, pruning only the committed one.
//
// Durability, stated once for every store: WriteFileAtomic writes a
// sibling tmp file, fflushes it and renames it over the target. A reader
// sees the old file or the whole new one, never a torn one, and a commit
// survives the death of the process (its bytes are in the page cache).
// It does NOT survive a power loss or kernel crash: neither the file nor
// the directory is fsynced, so the newest commits may be missing or read
// back short. Every store reads through checksums and walks past files
// that do not verify, so such a loss costs the newest commits, never a
// silent mis-decode. (The report log's sealer does fsync each segment
// before renaming it to .flog; see felip/replaylog/store.h.)

#ifndef FELIP_COMMON_SEQUENCED_DIR_H_
#define FELIP_COMMON_SEQUENCED_DIR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "felip/common/status.h"

namespace felip {

// Reads an entire file. kNotFound when it cannot be opened, kUnavailable
// on a read error.
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

// Writes `bytes` to `path` atomically: a sibling tmp file is written,
// fflushed and renamed over `path` (see the durability note above).
// kUnavailable on any I/O failure (the tmp file is cleaned up).
Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes);

// Sequence number of `name` under <prefix><seq><suffix>, or 0 when the
// name is not canonical.
uint64_t ParseSequence(std::string_view name, std::string_view prefix,
                       std::string_view suffix);

class SequencedDir {
 public:
  struct File {
    uint64_t seq = 0;
    std::string path;
  };

  // `suffixes`: the spellings of one sequence, committed one first.
  // Touches no file.
  SequencedDir(std::string dir, std::string prefix,
               std::vector<std::string> suffixes);

  // Creates the directory if absent; a failure surfaces at the first
  // commit.
  void Create() const;

  // Path of sequence `seq` spelled with suffixes[suffix_index].
  std::string PathOf(uint64_t seq, size_t suffix_index = 0) const;

  // Files in every spelling, oldest (lowest sequence) first. Empty when
  // the directory is missing.
  std::vector<File> List() const;
  // The paths of List(), in its order.
  std::vector<std::string> Paths() const;

  // One past the highest sequence in any spelling, 1 for an empty
  // directory: a restarted store continues here, so it never reuses a
  // committed name.
  uint64_t ResumeSequence() const;

  // Deletes committed-spelling files beyond the newest `keep_last_n`
  // (0 keeps all). Failures are ignored on purpose: leaking an old file
  // beats failing the commit that just produced a good new one.
  void Prune(size_t keep_last_n) const;

  // WriteFileAtomic to PathOf(seq), then Prune(keep_last_n). Returns the
  // committed path.
  StatusOr<std::string> Commit(uint64_t seq,
                               const std::vector<uint8_t>& bytes,
                               size_t keep_last_n) const;

  const std::string& dir() const { return dir_; }

 private:
  std::vector<File> Scan(size_t spellings) const;

  std::string dir_;
  std::string prefix_;
  std::vector<std::string> suffixes_;
};

}  // namespace felip

#endif  // FELIP_COMMON_SEQUENCED_DIR_H_
