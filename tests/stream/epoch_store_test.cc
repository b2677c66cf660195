// EpochStore and the epoch file: a plain PipelineCodec snapshot plus a
// kEpoch section. Checksum-gated decoding (every truncation and bit flip
// must fail cleanly, never half-decode), field-level adversaries under a
// valid seal, atomic commits with keep-last-N compaction, sequence numbers
// that survive restarts, and the recovery walk that skips damaged,
// renamed or foreign files instead of failing the whole window.

#include "felip/stream/epoch_store.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "felip/snapshot/format.h"
#include "felip/snapshot/pipeline_snapshot.h"
#include "felip/wire/framing.h"

namespace felip::stream {
namespace {

namespace fs = std::filesystem;

using snapshot::PipelineCodec;
using snapshot::RecoveredPipeline;
using snapshot::SectionId;

// The kEpoch section id, replicated here on purpose: renumbering it in
// the codec must fail these tests — it would orphan every epoch file
// already on disk.
constexpr uint8_t kEpochSectionId = 8;

// A finalized pipeline that ingested `reports` GRR reports through the
// networked path (so reports_ingested() counts them), spread round-robin
// over its grids.
core::FelipPipeline SealedPipeline(uint64_t reports, double epsilon = 2.0) {
  core::FelipConfig config;
  config.epsilon = epsilon;
  config.allow_olh = false;
  config.seed = 21;
  core::FelipPipeline pipeline({{"a", 16, false}, {"b", 8, true}}, reports,
                               config);
  pipeline.BeginIngest();
  const size_t grids = pipeline.assignments().size();
  for (uint64_t i = 0; i < reports; ++i) {
    const core::GridAssignment& grid = pipeline.assignments()[i % grids];
    const uint64_t cells =
        static_cast<uint64_t>(grid.plan.lx) * (grid.is_2d ? grid.plan.ly : 1);
    EXPECT_TRUE(pipeline
                    .IngestGrrReport(static_cast<uint32_t>(i % grids),
                                     (i / grids) % cells)
                    .ok());
  }
  pipeline.FinishIngest();
  pipeline.Finalize();
  return pipeline;
}

// The bytes EpochStore::Write commits for epoch `seq`.
std::vector<uint8_t> EpochBytes(uint64_t seq, uint64_t reports = 1000,
                                double epsilon = 2.0,
                                const std::vector<uint64_t>& keys = {7, 8}) {
  return PipelineCodec::Encode(SealedPipeline(reports, epsilon), {}, keys,
                               seq);
}

// Rebuilds `bytes` with section `id` carrying `payload`, under a VALID
// seal: field-level adversaries must be rejected on semantics, not on
// the checksum.
std::vector<uint8_t> WithSection(const std::vector<uint8_t>& bytes,
                                 SectionId id,
                                 const std::vector<uint8_t>& payload) {
  const StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  EXPECT_TRUE(reader.ok());
  snapshot::SnapshotWriter writer(reader->state_byte());
  for (const auto& section : reader->sections()) {
    writer.AppendSection(section.id,
                         section.id == id ? payload : section.payload);
  }
  return std::move(writer).Finish();
}

// Rewrites the envelope's magic and version, then reseals.
std::vector<uint8_t> WithHeader(const std::vector<uint8_t>& bytes,
                                uint32_t magic, uint8_t version) {
  std::vector<uint8_t> body(bytes.begin(), bytes.end() - sizeof(uint64_t));
  std::memcpy(body.data(), &magic, sizeof(magic));
  body[sizeof(magic)] = version;
  wire::SealChecksum(&body, snapshot::kChecksumSalt);
  return body;
}

std::vector<uint8_t> U64(uint64_t value) {
  std::vector<uint8_t> payload;
  wire::Writer(&payload).Put<uint64_t>(value);
  return payload;
}

void WriteRaw(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class EpochStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("felip_epoch_store_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  // Seals a fresh pipeline as epoch `seq`.
  static StatusOr<std::string> Seal(EpochStore& store, uint64_t seq,
                                    uint64_t reports = 1000,
                                    double epsilon = 2.0) {
    return store.Write(seq, SealedPipeline(reports, epsilon),
                       std::vector<uint64_t>{seq});
  }

  fs::path dir_;
};

TEST(EpochSegmentCodecTest, RoundTripsAllFields) {
  const core::FelipPipeline pipeline = SealedPipeline(1234, 0.75);
  const std::vector<uint64_t> keys = {5, 3, 9, 1};
  const std::vector<uint8_t> bytes =
      PipelineCodec::Encode(pipeline, {}, keys, 7);
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch_seq, 7u);
  EXPECT_EQ(decoded->pipeline.state(), core::PipelineState::kQueryable);
  EXPECT_EQ(decoded->pipeline.reports_ingested(), 1234u);
  EXPECT_EQ(decoded->pipeline.config().epsilon, 0.75);
  EXPECT_EQ(decoded->dedup_keys, keys);
  EXPECT_EQ(core::GridFrequencyDigest(decoded->pipeline),
            core::GridFrequencyDigest(pipeline));
  // The sequence rides in its own section, under the pinned id.
  const StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  const std::vector<uint8_t>* section =
      reader->FindSection(static_cast<SectionId>(kEpochSectionId));
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(*section, U64(7));
}

TEST(EpochSegmentCodecTest, RoundTripsWithoutDedupKeys) {
  const StatusOr<RecoveredPipeline> decoded =
      PipelineCodec::Decode(EpochBytes(1, 10, 1.0, {}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch_seq, 1u);
  EXPECT_TRUE(decoded->dedup_keys.empty());
}

TEST(EpochSegmentCodecTest, PlainSnapshotCarriesNoEpoch) {
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(
      PipelineCodec::Encode(SealedPipeline(10), {}, {}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch_seq, 0u);
}

TEST(EpochSegmentCodecTest, EveryTruncationIsDataLoss) {
  const std::vector<uint8_t> bytes = EpochBytes(3);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(cut);
    ASSERT_FALSE(decoded.ok()) << "length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << "length " << len;
  }
}

TEST(EpochSegmentCodecTest, EveryBitFlipIsRejected) {
  const std::vector<uint8_t> bytes = EpochBytes(3);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(PipelineCodec::Decode(flipped).ok()) << "byte " << i;
  }
}

TEST(EpochSegmentCodecTest, RejectsWrongMagicWithValidChecksum) {
  const StatusOr<RecoveredPipeline> decoded =
      PipelineCodec::Decode(WithHeader(EpochBytes(1), 0x46454C50 /* wire */,
                                       snapshot::kFormatVersion));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsFutureVersion) {
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(
      WithHeader(EpochBytes(1), snapshot::kMagic,
                 snapshot::kFormatVersion + 1));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsZeroSequence) {
  const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(
      WithSection(EpochBytes(1), SectionId::kEpoch, U64(0)));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(EpochSegmentCodecTest, RejectsPoisonedEpsilon) {
  const core::FelipPipeline pipeline = SealedPipeline(10);
  for (const double epsilon :
       {0.0, -1.0, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    core::FelipConfig config = pipeline.config();
    config.epsilon = epsilon;
    const StatusOr<RecoveredPipeline> decoded =
        PipelineCodec::Decode(WithSection(
            PipelineCodec::Encode(pipeline, {}, {}, 1), SectionId::kConfig,
            snapshot::EncodeConfigSection(config, 10)));
    ASSERT_FALSE(decoded.ok()) << "epsilon " << epsilon;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EpochSegmentCodecTest, RejectsEpochSectionLengthMismatch) {
  // The sequence is exactly one u64; a short or padded section is a
  // framing error even under a valid seal.
  for (const std::vector<uint8_t>& payload :
       {std::vector<uint8_t>{1, 0, 0, 0}, std::vector<uint8_t>(9, 1)}) {
    const StatusOr<RecoveredPipeline> decoded = PipelineCodec::Decode(
        WithSection(EpochBytes(1), SectionId::kEpoch, payload));
    ASSERT_FALSE(decoded.ok()) << payload.size() << " bytes";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EpochSegmentCodecTest, SegmentNeverVerifiesAsWireFrame) {
  // Distinct salts: epoch bytes must not pass the wire frame's seal.
  const std::vector<uint8_t> bytes = EpochBytes(1);
  EXPECT_FALSE(wire::CheckSealedChecksum(bytes, 0x77697265'6373756dULL));
}

TEST_F(EpochStoreTest, WriteCommitsAndLoadsBack) {
  EpochStore store(dir(), 4);
  const StatusOr<std::string> path = Seal(store, 1, 500, 1.5);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path->find("epoch-1.felip"), std::string::npos);
  // No tmp file survives a successful commit.
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".felip") << entry.path();
  }
  EXPECT_EQ(files, 1u);
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.files_skipped, 0u);
  ASSERT_EQ(loaded.epochs.size(), 1u);
  EXPECT_EQ(loaded.epochs[0].epoch_seq, 1u);
  EXPECT_EQ(loaded.epochs[0].pipeline.reports_ingested(), 500u);
  EXPECT_EQ(loaded.epochs[0].pipeline.config().epsilon, 1.5);
  EXPECT_EQ(loaded.epochs[0].dedup_keys, std::vector<uint64_t>{1});
  // An epoch file is a plain snapshot: the snapshot loader opens it too.
  const StatusOr<core::FelipPipeline> plain =
      core::FelipPipeline::LoadSnapshot(*path);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(core::GridFrequencyDigest(*plain),
            core::GridFrequencyDigest(loaded.epochs[0].pipeline));
}

TEST_F(EpochStoreTest, LoadAllReturnsOldestFirst) {
  EpochStore store(dir(), 8);
  // Write out of arrival order is impossible (sequence check), so order
  // comes from the directory walk + sort.
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(Seal(store, seq, seq * 100).ok());
  }
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.epochs.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.epochs[i].epoch_seq, i + 1);
    EXPECT_EQ(loaded.epochs[i].pipeline.reports_ingested(), (i + 1) * 100);
  }
}

TEST_F(EpochStoreTest, CompactionKeepsOnlyLastN) {
  EpochStore store(dir(), 2);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(Seal(store, seq).ok());
  }
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_EQ(loaded.epochs[0].epoch_seq, 4u);
  EXPECT_EQ(loaded.epochs[1].epoch_seq, 5u);
}

TEST_F(EpochStoreTest, SequenceResumesAcrossRestart) {
  {
    EpochStore store(dir(), 8);
    EXPECT_EQ(store.next_seq(), 1u);
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(Seal(store, seq).ok());
    }
  }
  EpochStore reopened(dir(), 8);
  EXPECT_EQ(reopened.next_seq(), 4u);
  // A committed epoch is never clobbered: the next seal takes sequence 4.
  ASSERT_TRUE(Seal(reopened, 4).ok());
  EXPECT_EQ(reopened.LoadAll().epochs.size(), 4u);
}

TEST_F(EpochStoreTest, GapsAfterFailedCommitsAreAllowed) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
  // Epoch 2's commit failed elsewhere; epoch 3 seals over the gap.
  ASSERT_TRUE(Seal(store, 3).ok());
  EXPECT_EQ(store.next_seq(), 4u);
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_EQ(loaded.epochs[0].epoch_seq, 1u);
  EXPECT_EQ(loaded.epochs[1].epoch_seq, 3u);
}

TEST_F(EpochStoreTest, LoadAllSkipsDamagedSegments) {
  EpochStore store(dir(), 8);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(Seal(store, seq, seq * 10).ok());
  }
  // Torch the middle epoch in place: one bad epoch costs that epoch.
  {
    std::ofstream out(fs::path(dir()) / "epoch-2.felip",
                      std::ios::binary | std::ios::trunc);
    out << "not an epoch";
  }
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.files_skipped, 1u);
  ASSERT_EQ(loaded.epochs.size(), 2u);
  EXPECT_EQ(loaded.epochs[0].epoch_seq, 1u);
  EXPECT_EQ(loaded.epochs[1].epoch_seq, 3u);
}

TEST_F(EpochStoreTest, LoadAllRejectsRenamedSegments) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
  // The file name is untrusted; the sealed kEpoch section is the
  // identity. An epoch renamed to another sequence must not impersonate
  // it.
  fs::rename(fs::path(dir()) / "epoch-1.felip",
             fs::path(dir()) / "epoch-9.felip");
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.epochs.size(), 0u);
  EXPECT_EQ(loaded.files_skipped, 1u);
}

TEST_F(EpochStoreTest, LoadAllSkipsSnapshotsThatAreNotSealedEpochs) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
  // A checkpoint (no kEpoch section) copied in under an epoch name...
  WriteRaw(fs::path(dir()) / "epoch-2.felip",
           PipelineCodec::Encode(SealedPipeline(10), {}, {}));
  // ...and an epoch section on a pipeline that never finalized.
  core::FelipPipeline collecting({{"a", 16, false}}, 10, {});
  collecting.BeginIngest();
  WriteRaw(fs::path(dir()) / "epoch-3.felip",
           PipelineCodec::Encode(collecting, {}, {}, 3));
  const LoadedEpochs loaded = store.LoadAll();
  ASSERT_EQ(loaded.epochs.size(), 1u);
  EXPECT_EQ(loaded.epochs[0].epoch_seq, 1u);
  EXPECT_EQ(loaded.files_skipped, 2u);
}

TEST_F(EpochStoreTest, IgnoresForeignFilesInTheDirectory) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 1).ok());
  {
    std::ofstream out(fs::path(dir()) / "notes.txt");
    out << "operator scratch";
  }
  {
    std::ofstream out(fs::path(dir()) / "epoch-x.felip");
    out << "not a sequence";
  }
  const LoadedEpochs loaded = store.LoadAll();
  EXPECT_EQ(loaded.epochs.size(), 1u);
  EXPECT_EQ(loaded.files_skipped, 0u);  // foreign names are not epochs
  EpochStore reopened(dir(), 8);
  EXPECT_EQ(reopened.next_seq(), 2u);
}

using EpochStoreDeathTest = EpochStoreTest;

TEST_F(EpochStoreDeathTest, RejectsSequenceReuse) {
  EpochStore store(dir(), 8);
  ASSERT_TRUE(Seal(store, 2).ok());
  const core::FelipPipeline pipeline = SealedPipeline(10);
  EXPECT_DEATH((void)store.Write(2, pipeline, {}), "increasing sequence");
  EXPECT_DEATH((void)store.Write(1, pipeline, {}), "increasing sequence");
}

}  // namespace
}  // namespace felip::stream
