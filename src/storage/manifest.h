// The manifest is the single source of truth for which files constitute the
// database: the live checkpoint, its epoch, and the WAL segment holding
// everything since. It is a tiny text file replaced atomically (temp +
// fsync + rename, WriteFileAtomic) so recovery always sees a complete old
// or complete new manifest — the commit point of every checkpoint.
//
// Format (trailing crc line covers everything before it):
//   rankcube-manifest v1
//   checkpoint=ckpt-00000000000000000042.tab
//   epoch=42
//   wal=wal-00000000000000000042.log
//   crc=3735928559
#ifndef RANKCUBE_STORAGE_MANIFEST_H_
#define RANKCUBE_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "storage/fs.h"

namespace rankcube {

struct Manifest {
  std::string checkpoint_file;  ///< file name inside the data dir
  uint64_t epoch = 0;           ///< epoch captured by that checkpoint
  std::string wal_file;         ///< segment starting at that epoch
  /// Monotone count of checkpoints committed over the directory's
  /// lifetime (1 = the seed checkpoint). Unlike `epoch` it advances even
  /// when no mutations happened between checkpoints, so operators can tell
  /// "checkpointing is running" from "nothing changed". Absent from
  /// legacy manifests, which load as 0.
  uint64_t generation = 0;
};

/// Name of the manifest file inside a data dir.
inline const char* ManifestFileName() { return "MANIFEST"; }

/// "ckpt-<epoch, zero-padded>.tab" — sorts by epoch lexicographically.
std::string CheckpointFileName(uint64_t epoch);
/// "wal-<epoch, zero-padded>.log".
std::string WalFileName(uint64_t epoch);
/// True if `name` looks like a checkpoint / WAL file (GC candidates).
bool IsCheckpointFileName(const std::string& name);
bool IsWalFileName(const std::string& name);

/// Atomically replaces `dir`/MANIFEST.
Status StoreManifest(Fs* fs, const std::string& dir, const Manifest& manifest);

/// Loads + validates `dir`/MANIFEST. kNotFound when missing (fresh dir);
/// kCorruption when present but damaged — the caller must NOT guess at
/// state, this is a hard stop.
Result<Manifest> LoadManifest(Fs* fs, const std::string& dir);

// The text framing this manifest and the partition manifest share: a
// header line, "key=value" lines, then a last line "crc=<decimal
// StoredCrc32c of every byte before it>".

/// Returns `body` (header and key=value lines) followed by its crc line.
std::string SealManifestText(const std::string& body);

/// Reads the "key=value" line at `*pos`. On a match stores the value,
/// moves `*pos` past the line and returns true; otherwise returns false
/// and leaves `*pos` where it was, so an optional line can be probed.
bool TakeManifestLine(const std::string& text, size_t* pos,
                      const std::string& key, std::string* value);

/// Checks that `text` from `pos` on is exactly the crc line over the bytes
/// before `pos`. Returns nullptr when it is, else what is wrong.
const char* CheckManifestSeal(const std::string& text, size_t pos);

}  // namespace rankcube

#endif  // RANKCUBE_STORAGE_MANIFEST_H_
