// String-keyed engine factory registry. Built-in keys:
//   "grid"            Ch3 grid ranking cube
//   "fragments"       Ch3 ranking fragments (semi-materialization)
//   "signature"       Ch4 signature cube
//   "signature_lossy" Ch4 signature cube through §4.5 bloom signatures
//   "table_scan"      sequential-scan oracle (TS)
//   "boolean_first"   index-selection-then-rank baseline
//   "ranking_first"   R-tree branch-and-bound + post-hoc verification
//   "rank_mapping"    range-mapping competitor [14], fed optimal bounds
//   "index_merge"     Ch5 progressive index-merge (no boolean predicates)
// Additional engines (future backends, remote shards) register under new
// keys; Create() hands back a RankingEngine and callers never learn the
// concrete type.
#ifndef RANKCUBE_ENGINE_REGISTRY_H_
#define RANKCUBE_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/grid_cube.h"
#include "core/ranking_fragments.h"
#include "core/signature_cube.h"
#include "engine/engine.h"
#include "merge/index_merge.h"

namespace rankcube {

/// Per-family construction knobs consumed by the built-in factories; a
/// factory reads only its own member, so one options value can configure a
/// whole fleet of engines over the same table.
struct EngineBuildOptions {
  GridCubeOptions grid;
  FragmentsOptions fragments;
  SignatureCubeOptions signature;  ///< lossy_bloom forced on for *_lossy

  /// Composite-index groups for rank_mapping; empty = one group spanning
  /// every selection dimension (§3.5.2).
  std::vector<std::vector<int>> rank_mapping_groups;

  MergeOptions::Mode merge_mode = MergeOptions::Mode::kProgressive;
  bool merge_join_signature = true;  ///< build + use one full join-signature
  int merge_btree_fanout = 0;        ///< 0 = derive from page size
};

using EngineFactory = std::function<Result<std::unique_ptr<RankingEngine>>(
    const Table&, IoSession&, const EngineBuildOptions&)>;

class EngineRegistry {
 public:
  /// Process-wide registry, pre-populated with the built-in engines.
  static EngineRegistry& Global();

  /// Registers a factory; fails with InvalidArgument on duplicate keys.
  Status Register(const std::string& name, EngineFactory factory);

  bool Contains(const std::string& name) const;

  /// Registered keys, sorted — the supported way to enumerate candidate
  /// engines (callers should never probe Create() for NotFound).
  std::vector<std::string> Keys() const;

  /// Builds the engine `name` over `table`. `io` is the construction
  /// session: factories read page geometry from it and charge build-time
  /// I/O to it (grid/fragments report construction_pages from exactly
  /// these charges).
  Result<std::unique_ptr<RankingEngine>> Create(
      const std::string& name, const Table& table, IoSession& io,
      const EngineBuildOptions& options = EngineBuildOptions()) const;

 private:
  EngineRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, EngineFactory> factories_;
};

}  // namespace rankcube

#endif  // RANKCUBE_ENGINE_REGISTRY_H_
