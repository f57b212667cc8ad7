#include "storage/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/crc32.h"

namespace rankcube {

namespace {

constexpr char kHeaderLine[] = "rankcube-manifest v1\n";

std::string EpochName(const char* prefix, uint64_t epoch, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", prefix, epoch, suffix);
  return buf;
}

bool HasAffixes(const std::string& name, const char* prefix,
                const char* suffix) {
  size_t np = std::strlen(prefix);
  size_t ns = std::strlen(suffix);
  return name.size() > np + ns && name.compare(0, np, prefix) == 0 &&
         name.compare(name.size() - ns, ns, suffix) == 0;
}

}  // namespace

std::string SealManifestText(const std::string& body) {
  return body + "crc=" + std::to_string(StoredCrc32c(body)) + "\n";
}

bool TakeManifestLine(const std::string& text, size_t* pos,
                      const std::string& key, std::string* value) {
  size_t eol = text.find('\n', *pos);
  if (eol == std::string::npos) return false;
  std::string line = text.substr(*pos, eol - *pos);
  if (line.compare(0, key.size() + 1, key + "=") != 0) return false;
  *pos = eol + 1;
  *value = line.substr(key.size() + 1);
  return true;
}

const char* CheckManifestSeal(const std::string& text, size_t pos) {
  const std::string body = text.substr(0, pos);
  std::string value;
  if (!TakeManifestLine(text, &pos, "crc", &value)) return "missing crc line";
  char* end = nullptr;
  uint32_t crc = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 10));
  if (*end != '\0' || StoredCrc32c(body) != crc) return "checksum mismatch";
  if (pos != text.size()) return "trailing bytes";
  return nullptr;
}

std::string CheckpointFileName(uint64_t epoch) {
  return EpochName("ckpt-", epoch, ".tab");
}

std::string WalFileName(uint64_t epoch) {
  return EpochName("wal-", epoch, ".log");
}

bool IsCheckpointFileName(const std::string& name) {
  return HasAffixes(name, "ckpt-", ".tab");
}

bool IsWalFileName(const std::string& name) {
  return HasAffixes(name, "wal-", ".log");
}

Status StoreManifest(Fs* fs, const std::string& dir,
                     const Manifest& manifest) {
  std::string body = kHeaderLine;
  body += "checkpoint=" + manifest.checkpoint_file + "\n";
  body += "epoch=" + std::to_string(manifest.epoch) + "\n";
  body += "wal=" + manifest.wal_file + "\n";
  body += "generation=" + std::to_string(manifest.generation) + "\n";
  return WriteFileAtomic(fs, dir, ManifestFileName(), SealManifestText(body));
}

Result<Manifest> LoadManifest(Fs* fs, const std::string& dir) {
  const std::string path = JoinPath(dir, ManifestFileName());
  auto exists = fs->FileExists(path);
  if (!exists.ok()) return exists.status();
  if (!exists.value()) return Status::NotFound("no manifest in " + dir);

  auto text = fs->ReadFileToString(path);
  if (!text.ok()) return text.status();
  const std::string& data = text.value();

  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("manifest '") + path + "': " + what);
  };
  if (data.compare(0, std::strlen(kHeaderLine), kHeaderLine) != 0) {
    return corrupt("bad header");
  }
  size_t pos = std::strlen(kHeaderLine);
  Manifest m;
  std::string value;
  if (!TakeManifestLine(data, &pos, "checkpoint", &m.checkpoint_file)) {
    return corrupt("missing checkpoint line");
  }
  if (!TakeManifestLine(data, &pos, "epoch", &value)) {
    return corrupt("missing epoch line");
  }
  char* end = nullptr;
  m.epoch = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty()) {
    return corrupt("bad epoch value");
  }
  if (!TakeManifestLine(data, &pos, "wal", &m.wal_file)) {
    return corrupt("missing wal line");
  }
  // Optional (absent from pre-generation manifests, which still verify:
  // the crc covers whatever lines are present).
  if (TakeManifestLine(data, &pos, "generation", &value)) {
    m.generation = std::strtoull(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || value.empty()) {
      return corrupt("bad generation value");
    }
  }
  if (const char* bad = CheckManifestSeal(data, pos)) return corrupt(bad);
  return m;
}

}  // namespace rankcube
