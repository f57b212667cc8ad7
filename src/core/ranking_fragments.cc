#include "core/ranking_fragments.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "cube/fragments.h"

namespace rankcube {

RankingFragments::RankingFragments(const Table& table, IoSession& io,
                                   FragmentsOptions options)
    : table_(table),
      grid_(table, {.block_size = options.block_size}),
      base_blocks_(table, grid_),
      block_size_(options.block_size),
      built_epoch_(table.epoch()) {
  Stopwatch watch;
  uint64_t pages_before = io.TotalPhysical();
  groups_ = options.groups.empty()
                ? GroupDimensions(table.num_sel_dims(), options.fragment_size)
                : options.groups;
  for (const auto& group : groups_) {
    for (auto& dims : AllSubsets(group)) {
      cuboid_dims_.push_back(dims);
      cuboids_.push_back(
          BuildGridCuboid(table, grid_, base_blocks_, std::move(dims)));
      ChargeCuboidBuild(table, io, cuboids_.back(), cuboids_.size() - 1);
      exact_cover_.emplace(cuboids_.back().dims, cuboids_.size() - 1);
    }
  }
  construction_pages_ = io.TotalPhysical() - pages_before;
  construction_ms_ = watch.ElapsedMs();
}

Status RankingFragments::ApplyDelta(const DeltaStore& delta, IoSession* io) {
  return ApplyGridDelta(table_, delta, grid_, &base_blocks_, &cuboids_,
                        &built_epoch_, io);
}

std::vector<int> RankingFragments::Covering(
    const std::vector<int>& query_dims) const {
  // Fast path: one materialized cuboid covers the query exactly.
  auto it = exact_cover_.find(query_dims);
  if (it != exact_cover_.end()) return {static_cast<int>(it->second)};
  return SelectCoveringCuboids(cuboid_dims_, query_dims);
}

int RankingFragments::CoveringCuboidCount(const TopKQuery& query) const {
  std::vector<int> qdims;
  for (const auto& p : query.predicates) qdims.push_back(p.dim);
  std::sort(qdims.begin(), qdims.end());
  if (qdims.empty()) return 0;
  return static_cast<int>(Covering(qdims).size());
}

Result<std::vector<ScoredTuple>> RankingFragments::TopK(
    const TopKQuery& query, IoSession* io, ExecStats* stats) const {
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  std::vector<int> qdims;
  for (const auto& p : query.predicates) qdims.push_back(p.dim);
  std::sort(qdims.begin(), qdims.end());

  if (qdims.empty()) {
    AllTidSource source(&base_blocks_);
    return GridNeighborhoodTopK(table_, grid_, base_blocks_, query, &source,
                                io, stats);
  }
  std::vector<int> cover = Covering(qdims);
  if (cover.empty()) {
    return Status::NotFound("query dimensions not covered by any fragment");
  }
  std::vector<std::unique_ptr<CuboidTidSource>> sources;
  for (int ci : cover) {
    std::vector<int32_t> values;
    ProjectPredicates(query.predicates, cuboids_[ci].dims, &values);
    sources.push_back(std::make_unique<CuboidTidSource>(&cuboids_[ci], &grid_,
                                                        std::move(values)));
  }
  if (sources.size() == 1) {
    return GridNeighborhoodTopK(table_, grid_, base_blocks_, query,
                                sources.front().get(), io, stats);
  }
  IntersectTidSource source(std::move(sources));
  return GridNeighborhoodTopK(table_, grid_, base_blocks_, query, &source,
                              io, stats);
}

size_t RankingFragments::SizeBytes() const {
  size_t bytes = base_blocks_.SizeBytes();
  for (const auto& c : cuboids_) bytes += c.SizeBytes();
  return bytes;
}

}  // namespace rankcube
