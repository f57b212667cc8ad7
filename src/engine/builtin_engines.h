// RankingEngine adapters over the seven executor families in this
// repository. Each adapter wraps a structure built by its caller: the
// EngineRegistry factories (registry.cc), or a figure bench or example
// that builds the structure itself to read its size and compression.
#ifndef RANKCUBE_ENGINE_BUILTIN_ENGINES_H_
#define RANKCUBE_ENGINE_BUILTIN_ENGINES_H_

#include <memory>
#include <vector>

#include "baselines/baselines.h"
#include "core/grid_cube.h"
#include "core/ranking_fragments.h"
#include "core/signature_cube.h"
#include "engine/engine.h"
#include "merge/index_merge.h"

namespace rankcube {

// The grid, fragments and signature engines own the write path of their
// structure: RankingEngine::Maintain incrementally absorbs table deltas
// (ApplyDelta). So does ranking_first over a non-const R-tree (R-tree
// insert+delete); over a const one, such as the partition template of a
// signature cube that owns it, it stays exact through the Execute delta
// overlay and reports SupportsMaintenance() == false.

/// Ch3 grid ranking cube ("grid").
std::unique_ptr<RankingEngine> MakeGridCubeEngine(
    const Table& table, std::shared_ptr<GridRankingCube> cube);

/// Ch3 ranking fragments ("fragments").
std::unique_ptr<RankingEngine> MakeFragmentsEngine(
    const Table& table, std::shared_ptr<RankingFragments> fragments);

/// Ch4 signature cube ("signature"); `lossy` = query through the §4.5
/// bloom signatures ("signature_lossy"; the cube must have been built with
/// lossy_bloom enabled).
std::unique_ptr<RankingEngine> MakeSignatureCubeEngine(
    const Table& table, std::shared_ptr<SignatureCube> cube,
    bool lossy = false);

/// Sequential-scan oracle ("table_scan"); always fresh by construction.
std::unique_ptr<RankingEngine> MakeTableScanEngine(const Table& table);

/// Boolean-first baseline ("boolean_first").
std::unique_ptr<RankingEngine> MakeBooleanFirstEngine(
    const Table& table, std::shared_ptr<const BooleanFirst> baseline);

/// Ranking-first baseline ("ranking_first") over a caller-provided R-tree
/// (e.g. a signature cube's partition template).
std::unique_ptr<RankingEngine> MakeRankingFirstEngine(
    const Table& table, std::shared_ptr<const RTree> rtree);
std::unique_ptr<RankingEngine> MakeRankingFirstEngine(
    const Table& table, std::shared_ptr<RTree> rtree);

/// Rank-mapping baseline ("rank_mapping"). The engine feeds it the optimal
/// k-th-score bound from an in-memory oracle, the concession the thesis
/// grants this competitor (§3.5.1); oracle evaluation charges no pages.
std::unique_ptr<RankingEngine> MakeRankMappingEngine(
    const Table& table, std::shared_ptr<const RankMapping> baseline);

/// Ch5 index-merge ("index_merge") over caller-provided merge indices.
/// `options.signatures` entries must outlive the engine; `owned` (optional)
/// transfers ownership of backing structures with matching lifetime.
std::unique_ptr<RankingEngine> MakeIndexMergeEngine(
    const Table& table, std::vector<const MergeIndex*> indices,
    MergeOptions options,
    std::shared_ptr<const void> owned = nullptr);

}  // namespace rankcube

#endif  // RANKCUBE_ENGINE_BUILTIN_ENGINES_H_
