// Pipeline <-> snapshot codec.
//
// PipelineCodec serializes a FelipPipeline's *complete* state into the
// section container (felip/snapshot/format.h) and reconstructs an
// equivalent pipeline from those bytes:
//
//   * kConfig / kSchema — the full FelipConfig and attribute schema, so a
//     loaded snapshot replans the exact same grid layout with no
//     out-of-band context.
//   * kState — lifecycle state + reports ingested so far.
//   * kOracles (kCollecting / kSealed) — every grid's oracle accumulator
//     (fo::OracleState: integer counts or raw OLH reports). Restoring and
//     continuing ingestion is bit-identical to never having stopped,
//     because estimates depend only on the multiset of accepted reports.
//   * kGridFrequencies (kQueryable) — the post-processed per-grid
//     estimates; response matrices are rebuilt deterministically on load
//     unless kResponseMatrices was persisted
//     (SnapshotOptions::include_response_matrices), which trades bytes for
//     skipping the IPF fit on warm restart.
//   * kDedup — the ingest service's drained trailer keys, oldest first, so
//     a restarted server recognizes resent batches it already counted.
//   * kEpoch (epoch files only) — the sealed epoch's sequence number; see
//     felip/stream/epoch_store.h.
//
// Decode validates everything semantically (shape against the replanned
// layout, oracle state via FrequencyOracle::RestoreState) and returns
// Status on any mismatch: a checksum-valid snapshot from a different
// config must fail cleanly, never abort or silently mis-restore.

#ifndef FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_
#define FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "felip/common/status.h"
#include "felip/core/felip.h"

namespace felip::snapshot {

// A decoded snapshot: the reconstructed pipeline plus the service-layer
// dedup keys that were captured with it.
struct RecoveredPipeline {
  core::FelipPipeline pipeline;
  std::vector<uint64_t> dedup_keys;
  uint64_t epoch_seq = 0;  // kEpoch section; 0 when absent
};

// --- Shared section codecs ---
//
// The kConfig / kSchema section payloads double as the "plan descriptor"
// other durable formats embed (the report log in felip/replaylog writes
// one into every segment header), so their codecs are exposed here.
// Grid planning is deterministic in (schema, num_users, config): any two
// artifacts carrying equal section bytes replan the identical layout.
// Decoding validates semantically (enum ranges, positive epsilon,
// non-empty schema) and returns Status — these bytes come from disk.

std::vector<uint8_t> EncodeConfigSection(const core::FelipConfig& config,
                                         uint64_t num_users);
Status DecodeConfigSection(const std::vector<uint8_t>& payload,
                           core::FelipConfig* config, uint64_t* num_users);

std::vector<uint8_t> EncodeSchemaSection(
    const std::vector<data::AttributeInfo>& schema);
Status DecodeSchemaSection(const std::vector<uint8_t>& payload,
                           std::vector<data::AttributeInfo>* schema);

class PipelineCodec {
 public:
  // Serializes `pipeline` (any state) and `dedup_keys` to snapshot bytes,
  // plus a kEpoch section when `epoch_seq` is nonzero. Never fails:
  // encoding reads only in-memory state the pipeline already validated.
  static std::vector<uint8_t> Encode(const core::FelipPipeline& pipeline,
                                     const core::SnapshotOptions& options,
                                     std::span<const uint64_t> dedup_keys,
                                     uint64_t epoch_seq = 0);

  // Verifies and decodes `bytes` into a pipeline in the captured state.
  static StatusOr<RecoveredPipeline> Decode(
      const std::vector<uint8_t>& bytes);

  // --- Accumulator section codec (shared with felip/dist) ---
  //
  // The kOracles section payload doubles as the body of a distributed
  // accumulator frame: EncodeOracleSection serializes every grid oracle's
  // exported state (count 0 before BeginIngest), and DecodeOracleSection
  // parses the states back for FelipPipeline::MergeAccumulators. Reusing
  // the snapshot bytes means the on-disk and on-wire accumulator formats
  // can never drift apart.
  static std::vector<uint8_t> EncodeOracleSection(
      const core::FelipPipeline& pipeline);
  static Status DecodeOracleSection(const std::vector<uint8_t>& payload,
                                    std::vector<fo::OracleState>* states);
};

}  // namespace felip::snapshot

#endif  // FELIP_SNAPSHOT_PIPELINE_SNAPSHOT_H_
