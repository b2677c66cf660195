#include "felip/common/sequenced_dir.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "felip/common/check.h"

namespace felip {

namespace fs = std::filesystem;

StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open file for reading: " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Unavailable("read error on file: " + path);
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot open tmp file for writing: " + tmp);
  }
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  // fflush hands the bytes to the OS before the rename makes the file
  // visible under its final name, so a process death never leaves a torn
  // final file.
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Unavailable("short write to tmp file: " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot rename tmp file into place: " + path);
  }
  return Status::Ok();
}

uint64_t ParseSequence(std::string_view name, std::string_view prefix,
                       std::string_view suffix) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return 0;
  }
  const std::string_view digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  // from_chars takes no sign for unsigned types and reports overflow; a
  // leading zero (which also rules out seq 0) is the one spelling it
  // would accept that is not canonical. UINT64_MAX is refused too: it
  // leaves no next sequence to resume at.
  uint64_t seq = 0;
  const char* end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, seq);
  if (ec != std::errc() || ptr != end || digits.front() == '0' ||
      seq == UINT64_MAX) {
    return 0;
  }
  return seq;
}

SequencedDir::SequencedDir(std::string dir, std::string prefix,
                           std::vector<std::string> suffixes)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffixes_(std::move(suffixes)) {
  FELIP_CHECK_MSG(!suffixes_.empty(), "a sequenced dir needs a suffix");
}

void SequencedDir::Create() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::string SequencedDir::PathOf(uint64_t seq, size_t suffix_index) const {
  return (fs::path(dir_) /
          (prefix_ + std::to_string(seq) + suffixes_[suffix_index]))
      .string();
}

std::vector<SequencedDir::File> SequencedDir::Scan(size_t spellings) const {
  std::vector<File> found;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    for (size_t s = 0; s < spellings; ++s) {
      const uint64_t seq = ParseSequence(name, prefix_, suffixes_[s]);
      if (seq > 0) {
        found.push_back({seq, it->path().string()});
        break;
      }
    }
  }
  std::sort(found.begin(), found.end(),
            [](const File& a, const File& b) { return a.seq < b.seq; });
  return found;
}

std::vector<SequencedDir::File> SequencedDir::List() const {
  return Scan(suffixes_.size());
}

std::vector<std::string> SequencedDir::Paths() const {
  std::vector<std::string> paths;
  for (File& file : List()) paths.push_back(std::move(file.path));
  return paths;
}

uint64_t SequencedDir::ResumeSequence() const {
  const std::vector<File> files = List();
  return files.empty() ? 1 : files.back().seq + 1;
}

void SequencedDir::Prune(size_t keep_last_n) const {
  if (keep_last_n == 0) return;
  const std::vector<File> committed = Scan(1);
  for (size_t i = 0; i + keep_last_n < committed.size(); ++i) {
    std::error_code ec;
    fs::remove(committed[i].path, ec);
  }
}

StatusOr<std::string> SequencedDir::Commit(uint64_t seq,
                                           const std::vector<uint8_t>& bytes,
                                           size_t keep_last_n) const {
  std::string path = PathOf(seq);
  FELIP_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  Prune(keep_last_n);
  return path;
}

}  // namespace felip
