#include "engine/builtin_engines.h"

#include <utility>

namespace rankcube {
namespace {

/// Shared grid-family description: cuboid dim sets + cell counts plus the
/// equi-depth partition geometry the block-access cost model reads.
void DescribeGridCuboids(const std::vector<GridCuboid>& cuboids,
                         const EquiDepthGrid& grid, int block_size,
                         AccessStructureInfo* info) {
  info->requires_convex = true;  // neighborhood search needs Lemma 1
  info->num_cuboids = static_cast<int>(cuboids.size());
  for (const auto& c : cuboids) {
    info->covered_dim_sets.push_back(c.dims);
    info->cuboid_cells += c.cells.size();
  }
  info->grid_bins = grid.bins_per_dim();
  info->grid_blocks = grid.num_blocks();
  info->block_size = block_size;
}

class GridCubeEngine final : public RankingEngine {
 public:
  GridCubeEngine(const Table& table, std::shared_ptr<GridRankingCube> c)
      : RankingEngine("grid", &table), cube_(std::move(c)) {}

  size_t SizeBytes() const override { return cube_->SizeBytes(); }

  uint64_t BuiltEpoch() const override { return cube_->built_epoch(); }
  bool SupportsMaintenance() const override { return true; }
  Status Maintain(IoSession* io) override {
    return cube_->ApplyDelta(table().delta(), io);
  }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    info.coverage = AccessStructureInfo::DimCoverage::kExactSets;
    DescribeGridCuboids(cube_->cuboids(), cube_->grid(), cube_->block_size(),
                        &info);
    info.construction_pages = cube_->construction_pages();
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = cube_->TopK(query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  std::shared_ptr<GridRankingCube> cube_;
};

class FragmentsEngine final : public RankingEngine {
 public:
  FragmentsEngine(const Table& table, std::shared_ptr<RankingFragments> f)
      : RankingEngine("fragments", &table), fragments_(std::move(f)) {}

  size_t SizeBytes() const override { return fragments_->SizeBytes(); }

  uint64_t BuiltEpoch() const override { return fragments_->built_epoch(); }
  bool SupportsMaintenance() const override { return true; }
  Status Maintain(IoSession* io) override {
    return fragments_->ApplyDelta(table().delta(), io);
  }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    // Any conjunction is answerable through a covering set (§3.4.2).
    info.coverage = AccessStructureInfo::DimCoverage::kAnySubset;
    DescribeGridCuboids(fragments_->cuboids(), fragments_->grid(),
                        fragments_->block_size(), &info);
    info.fragment_groups = fragments_->groups();
    info.construction_pages = fragments_->construction_pages();
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = fragments_->TopK(query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  std::shared_ptr<RankingFragments> fragments_;
};

class SignatureCubeEngine final : public RankingEngine {
 public:
  SignatureCubeEngine(const Table& table, std::shared_ptr<SignatureCube> c,
                      bool lossy)
      : RankingEngine(lossy ? "signature_lossy" : "signature", &table),
        cube_(std::move(c)),
        lossy_(lossy) {}

  size_t SizeBytes() const override {
    return cube_->CompressedBytes() + (lossy_ ? cube_->LossyBloomBytes() : 0);
  }

  uint64_t BuiltEpoch() const override { return cube_->built_epoch(); }
  bool SupportsMaintenance() const override { return true; }
  Status Maintain(IoSession* io) override {
    return cube_->ApplyDelta(table().delta(), io);
  }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    // A conjunction needs an exact-match cell or per-dim atomic cuboids for
    // the online assembly of §4.3.3.
    info.coverage = AccessStructureInfo::DimCoverage::kAtomicAssembly;
    info.num_cuboids = static_cast<int>(cube_->cuboids().size());
    for (const auto& c : cube_->cuboids()) {
      info.covered_dim_sets.push_back(c.dims);
      info.cuboid_cells += c.sigs.size();
    }
    const RTree& rtree = cube_->rtree();
    info.tree_fanout = rtree.max_entries();
    info.tree_depth = rtree.depth();
    info.tree_leaves = rtree.num_leaves();
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = lossy_ ? cube_->TopKLossy(query, ctx.io, &out.stats)
                    : cube_->TopK(query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  std::shared_ptr<SignatureCube> cube_;
  bool lossy_;
};

class TableScanEngine final : public RankingEngine {
 public:
  explicit TableScanEngine(const Table& table)
      : RankingEngine("table_scan", &table) {}

  /// A scan reads the live table directly: always fresh, maintenance is a
  /// no-op.
  uint64_t BuiltEpoch() const override { return table().epoch(); }
  bool SupportsMaintenance() const override { return true; }
  Status Maintain(IoSession*) override { return Status::OK(); }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = TableScanTopK(table(), query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }
};

class BooleanFirstEngine final : public RankingEngine {
 public:
  BooleanFirstEngine(const Table& table, std::shared_ptr<const BooleanFirst> b)
      : RankingEngine("boolean_first", &table), baseline_(std::move(b)) {}

  size_t SizeBytes() const override { return baseline_->IndexSizeBytes(); }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = baseline_->TopK(query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  std::shared_ptr<const BooleanFirst> baseline_;
};

class RankingFirstEngine final : public RankingEngine {
 public:
  RankingFirstEngine(const Table& table, std::shared_ptr<const RTree> rtree,
                     RTree* mutable_rtree = nullptr)
      : RankingEngine("ranking_first", &table),
        rtree_(std::move(rtree)),
        mutable_rtree_(mutable_rtree),
        baseline_(table, rtree_.get()) {}

  size_t SizeBytes() const override { return rtree_->SizeBytes(); }

  bool SupportsMaintenance() const override {
    return mutable_rtree_ != nullptr;
  }
  /// The R-tree records no epoch of its own; the engine tracks it and
  /// delegates to the shared maintenance pass (no path tracking — nothing
  /// consumes the update sets here).
  Status Maintain(IoSession* io) override {
    if (mutable_rtree_ == nullptr) return RankingEngine::Maintain(io);
    uint64_t epoch = BuiltEpoch();
    ApplyRTreeDelta(mutable_rtree_, table(), table().delta(), &epoch,
                    /*updates=*/nullptr, io);
    set_built_epoch(epoch);
    return Status::OK();
  }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    // Predicates verified per candidate by random table access, so any
    // conjunction is answerable (at a per-candidate page cost).
    info.tree_fanout = rtree_->max_entries();
    info.tree_depth = rtree_->depth();
    info.tree_leaves = rtree_->num_leaves();
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = baseline_.TopK(query, ctx.io, &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  std::shared_ptr<const RTree> rtree_;
  RTree* mutable_rtree_;  ///< nullptr for read-only wrapping
  RankingFirst baseline_;
};

class RankMappingEngine final : public RankingEngine {
 public:
  RankMappingEngine(const Table& table, std::shared_ptr<const RankMapping> b)
      : RankingEngine("rank_mapping", &table), baseline_(std::move(b)) {}

  size_t SizeBytes() const override { return baseline_->IndexSizeBytes(); }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    // Runs on the exact k-th score from an in-memory oracle (§3.5.1); the
    // planner never auto-routes to a competitor fed oracle knowledge.
    info.needs_external_bound = true;
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    auto r = baseline_->TopK(query, OptimalKthScore(query), ctx.io,
                             &out.stats);
    if (!r.ok()) return r.status();
    out.tuples = std::move(r).value();
    return out;
  }

 private:
  /// Optimal range-mapping bound from the in-memory oracle (no pages
  /// charged; the thesis concedes this competitor the exact k-th score,
  /// §3.5.1).
  double OptimalKthScore(const TopKQuery& query) const {
    auto oracle = BruteForceTopK(table(), query);
    return oracle.empty() ? 1e9 : oracle.back().score;
  }

  std::shared_ptr<const RankMapping> baseline_;
};

class IndexMergeEngine final : public RankingEngine {
 public:
  IndexMergeEngine(const Table& table, std::vector<const MergeIndex*> indices,
                   MergeOptions options, std::shared_ptr<const void> owned)
      : RankingEngine("index_merge", &table),
        indices_(std::move(indices)),
        options_(std::move(options)),
        owned_(std::move(owned)) {}

  /// Ch5's query model carries no boolean selections (§5.1.1).
  bool SupportsPredicates() const override { return false; }

  AccessStructureInfo Describe() const override {
    AccessStructureInfo info = RankingEngine::Describe();
    info.coverage = AccessStructureInfo::DimCoverage::kNone;
    info.num_cuboids = static_cast<int>(indices_.size());
    info.tree_fanout = indices_.empty() ? 0 : indices_.front()->fanout();
    return info;
  }

 protected:
  Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                 ExecContext& ctx) const override {
    TopKResult out;
    out.tuples = IndexMergeTopK(table(), indices_, query.function, query.k,
                                options_, ctx.io, &out.stats);
    return out;
  }

 private:
  std::vector<const MergeIndex*> indices_;
  MergeOptions options_;
  std::shared_ptr<const void> owned_;
};

}  // namespace

std::unique_ptr<RankingEngine> MakeGridCubeEngine(
    const Table& table, std::shared_ptr<GridRankingCube> cube) {
  return std::make_unique<GridCubeEngine>(table, std::move(cube));
}

std::unique_ptr<RankingEngine> MakeFragmentsEngine(
    const Table& table, std::shared_ptr<RankingFragments> fragments) {
  return std::make_unique<FragmentsEngine>(table, std::move(fragments));
}

std::unique_ptr<RankingEngine> MakeSignatureCubeEngine(
    const Table& table, std::shared_ptr<SignatureCube> cube, bool lossy) {
  return std::make_unique<SignatureCubeEngine>(table, std::move(cube), lossy);
}

std::unique_ptr<RankingEngine> MakeTableScanEngine(const Table& table) {
  return std::make_unique<TableScanEngine>(table);
}

std::unique_ptr<RankingEngine> MakeBooleanFirstEngine(
    const Table& table, std::shared_ptr<const BooleanFirst> baseline) {
  return std::make_unique<BooleanFirstEngine>(table, std::move(baseline));
}

std::unique_ptr<RankingEngine> MakeRankingFirstEngine(
    const Table& table, std::shared_ptr<const RTree> rtree) {
  return std::make_unique<RankingFirstEngine>(table, std::move(rtree));
}

std::unique_ptr<RankingEngine> MakeRankingFirstEngine(
    const Table& table, std::shared_ptr<RTree> rtree) {
  RTree* mut = rtree.get();
  return std::make_unique<RankingFirstEngine>(table, std::move(rtree), mut);
}

std::unique_ptr<RankingEngine> MakeRankMappingEngine(
    const Table& table, std::shared_ptr<const RankMapping> baseline) {
  return std::make_unique<RankMappingEngine>(table, std::move(baseline));
}

std::unique_ptr<RankingEngine> MakeIndexMergeEngine(
    const Table& table, std::vector<const MergeIndex*> indices,
    MergeOptions options, std::shared_ptr<const void> owned) {
  return std::make_unique<IndexMergeEngine>(table, std::move(indices),
                                            std::move(options),
                                            std::move(owned));
}

}  // namespace rankcube
