// Write-ahead log for the DeltaStore mutation stream. Every acknowledged
// Insert/Delete is a CRC-framed record appended (and, per the fsync policy,
// synced) BEFORE the in-memory table mutates — so "the client saw OK"
// implies "the record is on stable storage" under FsyncPolicy::kAlways.
//
// Segment layout:
//   header   : "RCWL" | u32 version | u64 start_epoch | u32 crc(header)
//   record*  : u32 crc(body) | u32 body_len | body
//   body     : u8 type | u64 seq | payload
//     kInsert: u16 num_sel | u16 num_rank | i32*num_sel | f64*num_rank
//     kDelete: u32 tid
//
// seq is the table epoch AFTER applying the record; a segment starting at
// epoch E holds seq E+1, E+2, ... with no gaps. Replay is idempotent by
// construction: records with seq <= the table's current epoch are skipped
// (duplicates from a retried append or a re-replayed segment), so applying
// a log twice is a no-op.
//
// Recovery truncation contract (ReadWal): the valid prefix is returned; a
// corrupt or partial record ENDS the log. If the damage extends to
// end-of-file it is a torn tail — the expected shape after a mid-write
// crash — and the caller truncates the segment and keeps serving
// read-write. If a well-formed record parses BEYOND the damage, the middle
// of the log rotted; committed data after the hole would be silently lost,
// so the caller degrades to read-only instead of guessing.
//
// Values are serialized little-endian via memcpy: segments are
// machine-local recovery state, not an interchange format.
#ifndef RANKCUBE_STORAGE_WAL_H_
#define RANKCUBE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/delta_store.h"
#include "storage/fs.h"

namespace rankcube {

/// When an acknowledged write is on stable storage.
enum class FsyncPolicy {
  kAlways,  ///< fsync every commit: no acked write can be lost
  kBatch,   ///< group commit: fsync once >= 64 KiB are pending
  kOff,     ///< never fsync: the OS flushes eventually (benchmarking)
};

const char* FsyncPolicyName(FsyncPolicy policy);
/// Parses "always" | "batch" | "off".
Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);

class WalWriter {
 public:
  /// Starts a fresh segment at `path` (truncating) whose records will begin
  /// at epoch `start_epoch` + 1; writes + syncs the header.
  static Result<std::unique_ptr<WalWriter>> Create(Fs* fs,
                                                   const std::string& path,
                                                   uint64_t start_epoch,
                                                   FsyncPolicy fsync);

  /// Reopens an existing (already validated + truncated) segment for
  /// further appends after recovery.
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      Fs* fs, const std::string& path, uint64_t start_epoch, uint64_t bytes,
      uint64_t records, FsyncPolicy fsync);

  Status AppendInsert(uint64_t seq, const std::vector<int32_t>& sel,
                      const std::vector<double>& rank);
  Status AppendDelete(uint64_t seq, Tid tid);

  /// Forces pending records to stable storage regardless of policy
  /// (checkpoint and clean-shutdown barrier).
  Status Sync();

  uint64_t start_epoch() const { return start_epoch_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

 private:
  WalWriter(std::unique_ptr<WritableFile> file, uint64_t start_epoch,
            uint64_t bytes, uint64_t records, FsyncPolicy fsync)
      : file_(std::move(file)),
        start_epoch_(start_epoch),
        bytes_(bytes),
        records_(records),
        fsync_(fsync) {}

  Status AppendRecord(std::string body);

  std::unique_ptr<WritableFile> file_;
  uint64_t start_epoch_;
  uint64_t bytes_;
  uint64_t records_;
  size_t unsynced_ = 0;
  FsyncPolicy fsync_;
};

/// One decoded WAL record.
struct WalRecord {
  DeltaStore::MutationKind kind;
  uint64_t seq = 0;
  std::vector<int32_t> sel;   ///< kInsert
  std::vector<double> rank;   ///< kInsert
  Tid tid = 0;                ///< kDelete
};

/// Result of scanning a segment (see the truncation contract above).
struct WalReadResult {
  uint64_t start_epoch = 0;
  std::vector<WalRecord> records;  ///< the valid prefix, in log order
  uint64_t valid_bytes = 0;        ///< prefix length incl. header; the
                                   ///< truncate point when torn
  bool torn_tail = false;          ///< damage at EOF (recoverable)
  bool mid_corruption = false;     ///< valid record past the damage (degrade)
  std::string damage;              ///< human-readable description
};

/// Scans `path`. Fails only when the file is missing/unreadable or its
/// HEADER is corrupt (nothing is salvageable then); record damage is
/// reported in the result, never as a Status.
Result<WalReadResult> ReadWal(Fs* fs, const std::string& path);

}  // namespace rankcube

#endif  // RANKCUBE_STORAGE_WAL_H_
