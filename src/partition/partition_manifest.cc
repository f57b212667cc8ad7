#include "partition/partition_manifest.h"

#include <cstdlib>
#include <cstring>

#include "storage/manifest.h"

namespace rankcube {

namespace {

constexpr char kHeaderLine[] = "rankcube-partitions v1\n";

bool ParseI32(const std::string& s, int32_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  long v = std::strtol(s.c_str(), &end, 10);
  if (*end != '\0') return false;
  if (v < INT32_MIN || v > INT32_MAX) return false;
  *out = static_cast<int32_t>(v);
  return true;
}

}  // namespace

bool IsValidPartitionName(const std::string& name) {
  if (name.empty() || name.size() > 128 || name[0] == '.') return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Status StorePartitionManifest(Fs* fs, const std::string& dir,
                              const PartitionManifest& manifest) {
  std::string body = kHeaderLine;
  body += "dim=" + std::to_string(manifest.partition_dim) + "\n";
  for (const PartitionManifestEntry& e : manifest.partitions) {
    if (!IsValidPartitionName(e.name)) {
      return Status::InvalidArgument("bad partition name '" + e.name + "'");
    }
    body += "partition=" + e.name + " " + std::to_string(e.range.lo) + " " +
            std::to_string(e.range.hi) + "\n";
  }
  return WriteFileAtomic(fs, dir, PartitionManifestFileName(),
                         SealManifestText(body));
}

Result<PartitionManifest> LoadPartitionManifest(Fs* fs,
                                                const std::string& dir) {
  const std::string path = JoinPath(dir, PartitionManifestFileName());
  auto exists = fs->FileExists(path);
  if (!exists.ok()) return exists.status();
  if (!exists.value()) {
    return Status::NotFound("no partition manifest in " + dir);
  }

  auto text = fs->ReadFileToString(path);
  if (!text.ok()) return text.status();
  const std::string& data = text.value();

  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("partition manifest '") + path +
                              "': " + what);
  };
  if (data.compare(0, std::strlen(kHeaderLine), kHeaderLine) != 0) {
    return corrupt("bad header");
  }
  size_t pos = std::strlen(kHeaderLine);
  PartitionManifest m;
  std::string value;
  if (!TakeManifestLine(data, &pos, "dim", &value)) {
    return corrupt("missing dim line");
  }
  int32_t dim = 0;
  if (!ParseI32(value, &dim) || dim < 0) return corrupt("bad dim value");
  m.partition_dim = dim;
  while (TakeManifestLine(data, &pos, "partition", &value)) {
    // "name lo hi"
    size_t s1 = value.find(' ');
    size_t s2 = s1 == std::string::npos ? s1 : value.find(' ', s1 + 1);
    if (s2 == std::string::npos) return corrupt("bad partition line");
    PartitionManifestEntry e;
    e.name = value.substr(0, s1);
    if (!IsValidPartitionName(e.name)) return corrupt("bad partition name");
    if (!ParseI32(value.substr(s1 + 1, s2 - s1 - 1), &e.range.lo) ||
        !ParseI32(value.substr(s2 + 1), &e.range.hi) || e.range.empty()) {
      return corrupt("bad partition range");
    }
    for (const PartitionManifestEntry& prev : m.partitions) {
      if (prev.name == e.name) return corrupt("duplicate partition name");
      if (prev.range.Overlaps(e.range)) {
        return corrupt("overlapping partition ranges");
      }
    }
    m.partitions.push_back(std::move(e));
  }
  if (const char* bad = CheckManifestSeal(data, pos)) return corrupt(bad);
  return m;
}

}  // namespace rankcube
