#include "storage/wal.h"

#include <cstring>

#include "common/crc32.h"

namespace rankcube {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'W', 'L'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kRecordHeaderBytes = 4 + 4;  // crc + body_len
constexpr uint8_t kTypeInsert = 1;
constexpr uint8_t kTypeDelete = 2;
/// A body larger than this is certainly a corrupt length field.
constexpr uint32_t kMaxBodyBytes = 1 << 24;
/// How far past damage to look for a live record before concluding the
/// damage is a torn tail rather than mid-log rot.
constexpr uint64_t kResyncScanBytes = 1 << 16;

template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetPod(const std::string& in, size_t* pos, T* v) {
  if (in.size() - *pos < sizeof(T)) return false;
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" + name +
                                 "' (want always|batch|off)");
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(Fs* fs,
                                                     const std::string& path,
                                                     uint64_t start_epoch,
                                                     FsyncPolicy fsync) {
  auto file = fs->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return file.status();

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutPod(&header, kVersion);
  PutPod(&header, start_epoch);
  uint32_t crc = StoredCrc32c(header);
  PutPod(&header, crc);

  RC_RETURN_IF_ERROR(file.value()->Append(header));
  RC_RETURN_IF_ERROR(file.value()->Sync());
  return std::unique_ptr<WalWriter>(new WalWriter(
      std::move(file).value(), start_epoch, header.size(), 0, fsync));
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    Fs* fs, const std::string& path, uint64_t start_epoch, uint64_t bytes,
    uint64_t records, FsyncPolicy fsync) {
  auto file = fs->NewWritableFile(path, /*truncate=*/false);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WalWriter>(new WalWriter(
      std::move(file).value(), start_epoch, bytes, records, fsync));
}

Status WalWriter::AppendRecord(std::string body) {
  std::string frame;
  frame.reserve(kRecordHeaderBytes + body.size());
  PutPod(&frame, StoredCrc32c(body));
  PutPod(&frame, static_cast<uint32_t>(body.size()));
  frame += body;

  RC_RETURN_IF_ERROR(file_->Append(frame));
  bytes_ += frame.size();
  ++records_;
  unsynced_ += frame.size();
  switch (fsync_) {
    case FsyncPolicy::kAlways:
      return Sync();
    case FsyncPolicy::kBatch: {
      constexpr size_t kGroupCommitBytes = 1 << 16;  // max unsynced bytes
      if (unsynced_ >= kGroupCommitBytes) return Sync();
      return Status::OK();
    }
    case FsyncPolicy::kOff:
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::AppendInsert(uint64_t seq, const std::vector<int32_t>& sel,
                               const std::vector<double>& rank) {
  std::string body;
  body.reserve(1 + 8 + 4 + sel.size() * 4 + rank.size() * 8);
  PutPod(&body, kTypeInsert);
  PutPod(&body, seq);
  PutPod(&body, static_cast<uint16_t>(sel.size()));
  PutPod(&body, static_cast<uint16_t>(rank.size()));
  for (int32_t v : sel) PutPod(&body, v);
  for (double v : rank) PutPod(&body, v);
  return AppendRecord(std::move(body));
}

Status WalWriter::AppendDelete(uint64_t seq, Tid tid) {
  std::string body;
  body.reserve(1 + 8 + 4);
  PutPod(&body, kTypeDelete);
  PutPod(&body, seq);
  PutPod(&body, tid);
  return AppendRecord(std::move(body));
}

Status WalWriter::Sync() {
  if (unsynced_ == 0) return Status::OK();
  RC_RETURN_IF_ERROR(file_->Sync());
  unsynced_ = 0;
  return Status::OK();
}

namespace {

/// Decodes the body of one record; false on a structural mismatch (which,
/// with a matching CRC, would mean an encoder bug — still refuse).
bool DecodeBody(const std::string& body, WalRecord* rec) {
  size_t pos = 0;
  uint8_t type = 0;
  if (!GetPod(body, &pos, &type)) return false;
  if (!GetPod(body, &pos, &rec->seq)) return false;
  if (type == kTypeInsert) {
    rec->kind = DeltaStore::MutationKind::kInsert;
    uint16_t num_sel = 0;
    uint16_t num_rank = 0;
    if (!GetPod(body, &pos, &num_sel)) return false;
    if (!GetPod(body, &pos, &num_rank)) return false;
    if (body.size() - pos != num_sel * 4u + num_rank * 8u) return false;
    rec->sel.resize(num_sel);
    rec->rank.resize(num_rank);
    for (auto& v : rec->sel) {
      if (!GetPod(body, &pos, &v)) return false;
    }
    for (auto& v : rec->rank) {
      if (!GetPod(body, &pos, &v)) return false;
    }
    return true;
  }
  if (type == kTypeDelete) {
    rec->kind = DeltaStore::MutationKind::kDelete;
    return GetPod(body, &pos, &rec->tid) && pos == body.size();
  }
  return false;
}

/// Tries to parse one record at `pos`. Returns 1 on success (advances pos),
/// 0 when the bytes from pos to EOF cannot hold a whole valid record
/// (partial), -1 on a definite mismatch (CRC / structure).
int TryParseRecord(const std::string& data, size_t* pos, WalRecord* rec) {
  if (data.size() - *pos < kRecordHeaderBytes) return 0;
  size_t p = *pos;
  uint32_t crc = 0;
  uint32_t len = 0;
  GetPod(data, &p, &crc);
  GetPod(data, &p, &len);
  if (len > kMaxBodyBytes) return -1;
  if (data.size() - p < len) return 0;
  std::string body(data, p, len);
  if (StoredCrc32c(body) != crc) return -1;
  if (!DecodeBody(body, rec)) return -1;
  *pos = p + len;
  return 1;
}

}  // namespace

Result<WalReadResult> ReadWal(Fs* fs, const std::string& path) {
  auto data = fs->ReadFileToString(path);
  if (!data.ok()) return data.status();
  const std::string& bytes = data.value();

  WalReadResult out;
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption("wal '" + path + "': header truncated");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("wal '" + path + "': bad magic");
  }
  size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  GetPod(bytes, &pos, &version);
  GetPod(bytes, &pos, &out.start_epoch);
  uint32_t crc = 0;
  GetPod(bytes, &pos, &crc);
  if (version != kVersion ||
      StoredCrc32c(std::string_view(bytes.data(), kHeaderBytes - 4)) != crc) {
    return Status::Corruption("wal '" + path + "': header checksum mismatch");
  }

  while (pos < bytes.size()) {
    WalRecord rec;
    size_t before = pos;
    int r = TryParseRecord(bytes, &pos, &rec);
    if (r == 1) {
      out.records.push_back(std::move(rec));
      continue;
    }
    // Damage at `before`. Torn tail or mid-log rot? Look ahead for any
    // byte offset where a whole valid record parses.
    out.valid_bytes = before;
    out.damage = (r == 0 ? "partial record at offset "
                         : "corrupt record at offset ") +
                 std::to_string(before);
    uint64_t limit =
        std::min<uint64_t>(bytes.size(), before + 1 + kResyncScanBytes);
    for (size_t scan = before + 1; scan < limit; ++scan) {
      size_t p = scan;
      WalRecord probe;
      if (TryParseRecord(bytes, &p, &probe) == 1) {
        out.mid_corruption = true;
        break;
      }
    }
    out.torn_tail = !out.mid_corruption;
    return out;
  }
  out.valid_bytes = bytes.size();
  return out;
}

}  // namespace rankcube
