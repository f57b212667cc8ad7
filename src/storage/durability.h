// DurabilityManager: the recovery state machine and write-ahead plumbing
// that make a RankCubeDb survive kill -9. It owns the data directory's
// three artifact kinds — checkpoint files (file_page_store.h + snapshot.h),
// WAL segments (wal.h), and the manifest (manifest.h) — and exposes exactly
// the operations the database needs: log a mutation, sync, checkpoint,
// and open-with-recovery.
//
// Open() state machine:
//   no manifest        -> fresh create: checkpoint the seed table, start an
//                         empty WAL, commit the manifest.
//   manifest corrupt   -> hard kCorruption (the file set is ambiguous;
//                         guessing could resurrect deleted data).
//   checkpoint corrupt -> hard kCorruption (nothing to serve).
//   WAL torn tail      -> expected crash shape: truncate to the valid
//                         prefix, replay it, stay READ-WRITE.
//   WAL mid-corruption / missing / header-corrupt / epoch gap
//                      -> replay the salvageable prefix, come up READ-ONLY
//                         at that state with a typed degraded_reason
//                         (acknowledged writes past the hole cannot be
//                         reconstructed; refusing new writes keeps the
//                         divergence from compounding).
//
// Write-ahead ordering contract (enforced by RankCubeDb): validate ->
// LogInsert/LogDelete (append + policy fsync) -> apply in memory. A WAL
// error means the mutation was never applied, so the caller can latch
// read-only with memory and disk still consistent.
#ifndef RANKCUBE_STORAGE_DURABILITY_H_
#define RANKCUBE_STORAGE_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "storage/file_page_store.h"
#include "storage/fs.h"
#include "storage/manifest.h"
#include "storage/table.h"
#include "storage/wal.h"

namespace rankcube {

struct DurabilityOptions {
  std::string data_dir;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  size_t page_size = 4096;  ///< checkpoint file page size
  Fs* fs = nullptr;         ///< nullptr = Fs::Posix()
};

/// What Open() found and did; surfaced through DbStats for operators and
/// asserted on by the crash-recovery tests.
struct RecoveryInfo {
  bool created = false;    ///< fresh dir: seeded checkpoint + empty WAL
  bool recovered = false;  ///< existing state was loaded
  bool read_only = false;  ///< unrecoverable damage: serving at last good
                           ///< state, writes refused
  uint64_t checkpoint_epoch = 0;
  uint64_t replayed = 0;            ///< WAL records applied
  uint64_t skipped_duplicates = 0;  ///< records at-or-below the epoch
  uint64_t wal_bytes = 0;           ///< valid WAL prefix length
  bool torn_tail = false;           ///< WAL damage at EOF was truncated
  std::string degraded_reason;      ///< set iff read_only
  double recovery_ms = 0.0;
};

class DurabilityManager {
 public:
  struct Opened {
    std::unique_ptr<DurabilityManager> manager;
    /// Set when existing state was recovered; replaces the caller's seed.
    std::optional<Table> table;
    RecoveryInfo info;
  };

  /// Recover-or-create against `options.data_dir` (created if missing).
  /// `seed` is checkpointed as the initial state when the dir is fresh and
  /// ignored otherwise. Hard-fails only when the on-disk state is too
  /// ambiguous to serve (see the state machine above).
  static Result<Opened> Open(const DurabilityOptions& options,
                             const Table& seed);

  // --- write-ahead hooks ---------------------------------------------------
  /// `seq` is the table epoch AFTER the mutation (epoch() + 1 at call time).
  Status LogInsert(uint64_t seq, const std::vector<int32_t>& sel,
                   const std::vector<double>& rank);
  Status LogDelete(uint64_t seq, Tid tid);
  /// Group-commit barrier: force everything appended so far to storage.
  Status SyncWal();

  /// Takes a full checkpoint of `table`: snapshot to a temp file, rename,
  /// start a fresh WAL at the table's epoch, commit the manifest, GC
  /// superseded files. On success the backing handle (checkpoint_pages)
  /// points at the new file. Crash-safe at every step — until the manifest
  /// rename lands, recovery uses the previous checkpoint + WAL.
  Status Checkpoint(const Table& table);

  /// Open handle on the live checkpoint file (for PageStore backing);
  /// never null after a successful Open.
  std::shared_ptr<const FilePageStore> checkpoint_pages() const {
    return checkpoint_pages_;
  }

  uint64_t checkpoint_epoch() const { return manifest_.epoch; }
  /// Checkpoints committed over the directory's lifetime (see Manifest).
  uint64_t checkpoint_generation() const { return manifest_.generation; }
  uint64_t wal_bytes() const { return wal_ ? wal_->bytes() : 0; }
  uint64_t wal_records() const { return wal_ ? wal_->records() : 0; }
  const std::string& data_dir() const { return options_.data_dir; }
  FsyncPolicy fsync_policy() const { return options_.fsync; }

 private:
  explicit DurabilityManager(DurabilityOptions options)
      : options_(std::move(options)) {}

  /// Removes checkpoint/WAL files the manifest no longer references.
  void CollectGarbage();

  DurabilityOptions options_;
  Manifest manifest_;
  std::unique_ptr<WalWriter> wal_;  ///< null when opened read-only
  std::shared_ptr<const FilePageStore> checkpoint_pages_;
};

/// Applies one WAL record to `table` if it is new (seq == epoch + 1);
/// returns false for an already-applied duplicate (seq <= epoch). Errors on
/// a sequence gap or a record the table rejects — both mean the log and the
/// table diverged. Exposed for replay-idempotence tests.
Result<bool> ApplyWalRecord(Table* table, const WalRecord& rec);

}  // namespace rankcube

#endif  // RANKCUBE_STORAGE_DURABILITY_H_
