#include "storage/durability.h"

#include <chrono>

#include "storage/snapshot.h"

namespace rankcube {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Writes `table`'s snapshot as `dir`/`name` atomically (temp + rename).
Status WriteCheckpointFile(Fs* fs, const std::string& dir,
                           const std::string& name, const Table& table,
                           size_t page_size) {
  const std::string tmp = JoinPath(dir, name + ".tmp");
  RC_RETURN_IF_ERROR(FilePageStore::WriteBlobFile(
      fs, tmp, EncodeTableSnapshot(table), page_size, table.epoch()));
  RC_RETURN_IF_ERROR(fs->RenameFile(tmp, JoinPath(dir, name)));
  return fs->SyncDir(dir);
}

}  // namespace

Result<bool> ApplyWalRecord(Table* table, const WalRecord& rec) {
  if (rec.seq <= table->epoch()) return false;  // already applied
  if (rec.seq != table->epoch() + 1) {
    return Status::Corruption("wal sequence gap: record " +
                              std::to_string(rec.seq) + " at table epoch " +
                              std::to_string(table->epoch()));
  }
  if (rec.kind == DeltaStore::MutationKind::kInsert) {
    auto tid = table->Insert(rec.sel, rec.rank);
    if (!tid.ok()) {
      return Status::Corruption("wal insert at seq " + std::to_string(rec.seq) +
                                " rejected: " + tid.status().message());
    }
  } else {
    Status s = table->Delete(rec.tid);
    if (!s.ok()) {
      return Status::Corruption("wal delete at seq " + std::to_string(rec.seq) +
                                " rejected: " + s.message());
    }
  }
  return true;
}

Result<DurabilityManager::Opened> DurabilityManager::Open(
    const DurabilityOptions& options, const Table& seed) {
  auto t0 = std::chrono::steady_clock::now();
  DurabilityOptions opts = options;
  if (opts.fs == nullptr) opts.fs = Fs::Posix();
  Fs* fs = opts.fs;
  RC_RETURN_IF_ERROR(fs->CreateDir(opts.data_dir));

  Opened out;
  out.manager =
      std::unique_ptr<DurabilityManager>(new DurabilityManager(opts));
  DurabilityManager& mgr = *out.manager;

  auto manifest = LoadManifest(fs, opts.data_dir);
  if (!manifest.ok() &&
      manifest.status().code() != Status::Code::kNotFound) {
    return manifest.status();  // corrupt manifest: hard stop
  }

  if (!manifest.ok()) {
    // Fresh directory: the seed table becomes checkpoint zero.
    out.info.created = true;
    out.info.checkpoint_epoch = seed.epoch();
    mgr.manifest_.epoch = seed.epoch();
    mgr.manifest_.checkpoint_file = CheckpointFileName(seed.epoch());
    mgr.manifest_.wal_file = WalFileName(seed.epoch());
    mgr.manifest_.generation = 1;  // the seed checkpoint
    RC_RETURN_IF_ERROR(WriteCheckpointFile(fs, opts.data_dir,
                                           mgr.manifest_.checkpoint_file, seed,
                                           opts.page_size));
    auto wal = WalWriter::Create(fs, JoinPath(opts.data_dir,
                                              mgr.manifest_.wal_file),
                                 seed.epoch(), opts.fsync);
    if (!wal.ok()) return wal.status();
    mgr.wal_ = std::move(wal).value();
    RC_RETURN_IF_ERROR(StoreManifest(fs, opts.data_dir, mgr.manifest_));
  } else {
    out.info.recovered = true;
    mgr.manifest_ = std::move(manifest).value();
    out.info.checkpoint_epoch = mgr.manifest_.epoch;

    // Checkpoint: must decode fully, every page CRC-verified.
    auto ckpt = FilePageStore::Open(
        fs, JoinPath(opts.data_dir, mgr.manifest_.checkpoint_file));
    if (!ckpt.ok()) return ckpt.status();
    auto blob = ckpt.value()->ReadBlob();
    if (!blob.ok()) return blob.status();
    auto table = DecodeTableSnapshot(blob.value());
    if (!table.ok()) return table.status();
    if (table.value().epoch() != mgr.manifest_.epoch) {
      return Status::Corruption("checkpoint epoch " +
                                std::to_string(table.value().epoch()) +
                                " disagrees with manifest epoch " +
                                std::to_string(mgr.manifest_.epoch));
    }
    out.table.emplace(std::move(table).value());
    mgr.checkpoint_pages_ = std::move(ckpt).value();

    // WAL: replay the valid prefix; classify any damage.
    const std::string wal_path =
        JoinPath(opts.data_dir, mgr.manifest_.wal_file);
    auto degrade = [&](const std::string& reason) {
      out.info.read_only = true;
      out.info.degraded_reason = reason;
    };
    auto wal = ReadWal(fs, wal_path);
    if (!wal.ok()) {
      degrade("wal unreadable: " + wal.status().message());
    } else if (wal.value().start_epoch != mgr.manifest_.epoch) {
      degrade("wal starts at epoch " +
              std::to_string(wal.value().start_epoch) +
              ", checkpoint is at " + std::to_string(mgr.manifest_.epoch));
    } else {
      const WalReadResult& scan = wal.value();
      out.info.wal_bytes = scan.valid_bytes;
      out.info.torn_tail = scan.torn_tail;
      for (const WalRecord& rec : scan.records) {
        auto applied = ApplyWalRecord(&out.table.value(), rec);
        if (!applied.ok()) {
          degrade(applied.status().message());
          break;
        }
        if (applied.value()) {
          ++out.info.replayed;
        } else {
          ++out.info.skipped_duplicates;
        }
      }
      if (!out.info.read_only && scan.mid_corruption) {
        degrade("wal " + scan.damage +
                " with valid records beyond it (committed data lost)");
      }
      if (!out.info.read_only && scan.torn_tail) {
        // The expected crash shape: drop the torn bytes, keep serving.
        RC_RETURN_IF_ERROR(fs->TruncateFile(wal_path, scan.valid_bytes));
      }
      if (!out.info.read_only) {
        auto writer = WalWriter::OpenForAppend(fs, wal_path,
                                               scan.start_epoch,
                                               scan.valid_bytes,
                                               scan.records.size(),
                                               opts.fsync);
        if (!writer.ok()) return writer.status();
        mgr.wal_ = std::move(writer).value();
      }
    }
  }

  if (mgr.checkpoint_pages_ == nullptr) {
    auto ckpt = FilePageStore::Open(
        fs, JoinPath(opts.data_dir, mgr.manifest_.checkpoint_file));
    if (!ckpt.ok()) return ckpt.status();
    mgr.checkpoint_pages_ = std::move(ckpt).value();
  }
  out.info.recovery_ms = MsSince(t0);
  return out;
}

Status DurabilityManager::LogInsert(uint64_t seq,
                                    const std::vector<int32_t>& sel,
                                    const std::vector<double>& rank) {
  if (wal_ == nullptr) return Status::Internal("wal unavailable (read-only)");
  return wal_->AppendInsert(seq, sel, rank);
}

Status DurabilityManager::LogDelete(uint64_t seq, Tid tid) {
  if (wal_ == nullptr) return Status::Internal("wal unavailable (read-only)");
  return wal_->AppendDelete(seq, tid);
}

Status DurabilityManager::SyncWal() {
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

Status DurabilityManager::Checkpoint(const Table& table) {
  Fs* fs = options_.fs;
  const uint64_t epoch = table.epoch();

  // 1. Snapshot to its final name (temp + rename inside).
  Manifest next;
  next.epoch = epoch;
  next.checkpoint_file = CheckpointFileName(epoch);
  next.wal_file = WalFileName(epoch);
  next.generation = manifest_.generation + 1;
  RC_RETURN_IF_ERROR(WriteCheckpointFile(fs, options_.data_dir,
                                         next.checkpoint_file, table,
                                         options_.page_size));

  // 2. Fresh WAL at the checkpoint's epoch. If the epoch did not advance
  // since the last checkpoint the name collides with the live segment —
  // harmless: zero mutations happened, so the segment holds no record the
  // previous manifest still needs.
  auto wal = WalWriter::Create(fs, JoinPath(options_.data_dir, next.wal_file),
                               epoch, options_.fsync);
  if (!wal.ok()) return wal.status();

  // 3. Commit point: the manifest rename.
  RC_RETURN_IF_ERROR(StoreManifest(fs, options_.data_dir, next));
  manifest_ = next;
  wal_ = std::move(wal).value();

  // 4. Superseded files are now unreferenced; reopen the backing handle.
  CollectGarbage();
  auto ckpt = FilePageStore::Open(
      fs, JoinPath(options_.data_dir, manifest_.checkpoint_file));
  if (!ckpt.ok()) return ckpt.status();
  checkpoint_pages_ = std::move(ckpt).value();
  return Status::OK();
}

void DurabilityManager::CollectGarbage() {
  auto names = options_.fs->ListDir(options_.data_dir);
  if (!names.ok()) return;
  for (const std::string& name : names.value()) {
    bool gc = (IsCheckpointFileName(name) &&
               name != manifest_.checkpoint_file) ||
              (IsWalFileName(name) && name != manifest_.wal_file);
    if (gc) {
      Status s = options_.fs->RemoveFile(JoinPath(options_.data_dir, name));
      (void)s;  // best-effort: a leaked old file is re-GC'd next checkpoint
    }
  }
}

}  // namespace rankcube
