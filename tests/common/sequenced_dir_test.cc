// The sequenced-file discipline, run once per store that keeps it: the
// snapshot store (snapshot-<seq>.felip), the epoch store
// (epoch-<seq>.felip) and the report log (reportlog-<seq>.flog, with
// .open for the active segment). Every case commits through the real
// store and checks the names it leaves: resuming past existing files
// (including a crashed commit's leftover), keep-last-N pruning, and
// foreign or non-canonical names that must be neither listed, resumed
// past nor pruned.

#include "felip/common/sequenced_dir.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/data/synthetic.h"
#include "felip/replaylog/store.h"
#include "felip/snapshot/store.h"
#include "felip/stream/epoch_store.h"

namespace felip {
namespace {

namespace fs = std::filesystem;

TEST(ParseSequenceTest, AcceptsOnlyCanonicalNames) {
  EXPECT_EQ(ParseSequence("snapshot-1.felip", "snapshot-", ".felip"), 1u);
  EXPECT_EQ(ParseSequence("snapshot-907.felip", "snapshot-", ".felip"), 907u);
  EXPECT_EQ(ParseSequence("snapshot-18446744073709551614.felip", "snapshot-",
                          ".felip"),
            18446744073709551614u);
  for (const char* name :
       {"snapshot-01.felip", "snapshot-0.felip", "snapshot-.felip",
        "snapshot-18446744073709551617.felip",  // 2^64 + 1 wraps to 1
        "snapshot-18446744073709551615.felip",  // no successor to resume at
        "snapshot-99999999999999999999999.felip", "snapshot-+1.felip",
        "snapshot--1.felip", "snapshot- 1.felip", "snapshot-1x.felip",
        "snapshot-1.felip.tmp", "snapshot-1.flog", "epoch-1.felip",
        "snapshot-1.felipx", "xsnapshot-1.felip"}) {
    EXPECT_EQ(ParseSequence(name, "snapshot-", ".felip"), 0u) << name;
  }
}

// A finalized pipeline for the epoch store to seal.
const core::FelipPipeline& SmallEpoch() {
  static const core::FelipPipeline* pipeline = [] {
    const data::Dataset dataset = data::MakeUniform(400, 2, 0, 8, 2, 5);
    auto* p =
        new core::FelipPipeline(dataset.attributes(), dataset.num_rows(), {});
    p->Collect(dataset);
    p->Finalize();
    return p;
  }();
  return *pipeline;
}

// One store's naming and a way to drive the real store.
struct StoreKind {
  const char* label;
  const char* prefix;
  const char* suffix;  // committed spelling
  // Suffix of the file a commit that crashed midway leaves behind.
  const char* leftover_suffix;
  // Whether that leftover holds a sequence the store must resume past
  // (the report log's .open segment still replays; a tmp file is not a
  // file of the store at all).
  bool leftover_holds_sequence;
  // Opens the store on `dir` with keep-last-`keep` and commits one file.
  void (*commit)(const std::string& dir, size_t keep);
  // The store's own listing, oldest first.
  std::vector<std::string> (*list)(const std::string& dir);
};

// Names the parameter by its label in test listings.
void PrintTo(const StoreKind& kind, std::ostream* os) { *os << kind.label; }

const StoreKind kStores[] = {
    {"snapshot", "snapshot-", ".felip", ".felip.tmp", false,
     [](const std::string& dir, size_t keep) {
       ASSERT_TRUE(snapshot::SnapshotStore(dir, keep).Write({1, 2, 3}).ok());
     },
     [](const std::string& dir) {
       std::vector<std::string> paths =
           snapshot::SnapshotStore(dir).ListNewestFirst();
       return std::vector<std::string>(paths.rbegin(), paths.rend());
     }},
    {"epoch", "epoch-", ".felip", ".felip.tmp", false,
     [](const std::string& dir, size_t keep) {
       stream::EpochStore store(dir, keep);
       ASSERT_TRUE(store.Write(store.next_seq(), SmallEpoch(), {}).ok());
     },
     [](const std::string& dir) {
       return stream::EpochStore(dir).ListOldestFirst();
     }},
    {"reportlog", "reportlog-", ".flog", ".open", true,
     [](const std::string& dir, size_t keep) {
       replaylog::LogWriterOptions options;
       options.keep_segments = keep;
       StatusOr<replaylog::LogWriter> log =
           replaylog::LogWriter::Open(dir, {1, 2, 3}, options);
       ASSERT_TRUE(log.ok());
       const std::vector<uint8_t> payload = {9, 9};
       ASSERT_TRUE(
           log->Append(replaylog::RecordType::kBatch, 1, payload).ok());
       ASSERT_TRUE(log->Seal().ok());
     },
     [](const std::string& dir) {
       return replaylog::ListSegmentsOldestFirst(dir);
     }},
};

class StoreDisciplineTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (fs::path(::testing::TempDir()) / "felip_store_discipline" /
            test.substr(0, test.find('/')) / GetParam().label)
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Name(const std::string& seq, const char* suffix) const {
    return GetParam().prefix + seq + suffix;
  }
  std::string Committed(uint64_t seq) const {
    return Name(std::to_string(seq), GetParam().suffix);
  }
  void Touch(const std::string& name) const {
    std::ofstream(fs::path(dir_) / name) << "stray";
  }
  bool Exists(const std::string& name) const {
    return fs::exists(fs::path(dir_) / name);
  }
  void Commit(size_t keep = 100) const { GetParam().commit(dir_, keep); }
  // File names the store lists, oldest first.
  std::vector<std::string> Listed() const {
    std::vector<std::string> names;
    for (const std::string& path : GetParam().list(dir_)) {
      names.push_back(fs::path(path).filename().string());
    }
    return names;
  }

  std::string dir_;
};

TEST_P(StoreDisciplineTest, CommitsCanonicalNamesFromOne) {
  Commit();
  Commit();
  EXPECT_EQ(Listed(), (std::vector<std::string>{Committed(1), Committed(2)}));
}

TEST_P(StoreDisciplineTest, ResumesPastExistingFilesAndCrashLeftovers) {
  Touch(Committed(4));
  const std::string leftover = Name("6", GetParam().leftover_suffix);
  Touch(leftover);
  Commit();
  const uint64_t next = GetParam().leftover_holds_sequence ? 7 : 5;
  EXPECT_TRUE(Exists(Committed(4)));
  EXPECT_TRUE(Exists(Committed(next)));
  // A crashed commit's leftover is never touched by the next commit.
  EXPECT_TRUE(Exists(leftover));
  EXPECT_EQ(Listed().back(), Committed(next));
}

TEST_P(StoreDisciplineTest, KeepsOnlyTheNewestN) {
  for (int i = 0; i < 5; ++i) Commit(2);
  EXPECT_EQ(Listed(), (std::vector<std::string>{Committed(4), Committed(5)}));
}

TEST_P(StoreDisciplineTest, ForeignAndNonCanonicalNamesAreIgnored) {
  const std::vector<std::string> strays = {
      "notes.txt",
      Name("x", GetParam().suffix),
      Name("01", GetParam().suffix),
      Name("18446744073709551617", GetParam().suffix),  // wraps to 1
      Name("18446744073709551615", GetParam().suffix),
      Name("0", GetParam().suffix),
      Name("+2", GetParam().suffix),
      Committed(9) + ".bak",
  };
  for (const std::string& stray : strays) Touch(stray);
  // Not resumed past: the first commit is sequence 1...
  Commit(1);
  Commit(1);
  // ...not listed beside the committed files...
  EXPECT_EQ(Listed(), std::vector<std::string>{Committed(2)});
  // ...and not pruned: only the store's own files rotate.
  for (const std::string& stray : strays) {
    EXPECT_TRUE(Exists(stray)) << stray;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreDisciplineTest, ::testing::ValuesIn(kStores),
    [](const ::testing::TestParamInfo<StoreKind>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace felip
