#include "core/grid_cube.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>

#include "bitmap/tidlist.h"
#include "common/stopwatch.h"
#include "func/kernels/kernels.h"
#include "cube/fragments.h"

namespace rankcube {

uint32_t GridCuboid::PidOfBid(const EquiDepthGrid& grid, Bid bid) const {
  // Decodes the row-major bin coordinates in place (most significant
  // first), folding each into the pseudo-block id as it appears — this runs
  // per tuple at build time and per bid at query time, so it must not
  // allocate a coords vector the way grid.CoordsOfBid(bid) does.
  const Bid bins = static_cast<Bid>(grid.bins_per_dim());
  Bid div = 1;
  for (int d = 1; d < grid.num_dims(); ++d) div *= bins;
  uint32_t pid = 0;
  for (int d = 0; d < grid.num_dims(); ++d, div /= bins) {
    const uint32_t c = static_cast<uint32_t>(bid / div % bins);
    pid = pid * static_cast<uint32_t>(pseudo_bins) + c / scale_factor;
  }
  return pid;
}

size_t GridCuboid::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, list] : cells) {
    bytes += 16 + 4 * key.values.size() + list.size() * 8;  // bid+tid pairs
  }
  return bytes;
}

size_t GridCuboid::CompressedSizeBytes() const {
  size_t bytes = 0;
  std::vector<Tid> run;
  for (const auto& [key, list] : cells) {
    bytes += 16 + 4 * key.values.size();
    size_t i = 0;
    while (i < list.size()) {
      Bid bid = list[i].first;
      run.clear();
      for (; i < list.size() && list[i].first == bid; ++i) {
        run.push_back(list[i].second);
      }
      bytes += 4 + TidListEncodedSize(run);  // bid marker + coded run
    }
  }
  return bytes;
}

GridCuboid BuildGridCuboid(const Table& table, const EquiDepthGrid& grid,
                           const BaseBlockTable& base_blocks,
                           std::vector<int> dims) {
  GridCuboid cuboid;
  cuboid.dims = std::move(dims);
  std::sort(cuboid.dims.begin(), cuboid.dims.end());

  // sf = floor((prod c_j)^(1/R)): merging sf bins per ranking dimension
  // multiplies the expected tuples per cell by prod(c_j), restoring one
  // page per cell (§3.2.3).
  double prod = 1.0;
  for (int d : cuboid.dims) {
    prod *= static_cast<double>(table.schema().sel_cardinality[d]);
  }
  int sf = static_cast<int>(std::floor(
      std::pow(prod, 1.0 / std::max(1, grid.num_dims()))));
  cuboid.scale_factor = std::max(1, std::min(sf, grid.bins_per_dim()));
  cuboid.pseudo_bins =
      (grid.bins_per_dim() + cuboid.scale_factor - 1) / cuboid.scale_factor;

  CellKey key;
  key.values.resize(cuboid.dims.size());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
    if (!table.is_live(t)) continue;
    Bid bid = base_blocks.BidOfTuple(t);
    for (size_t i = 0; i < cuboid.dims.size(); ++i) {
      key.values[i] = table.sel(t, cuboid.dims[i]);
    }
    key.pid = cuboid.PidOfBid(grid, bid);
    cuboid.cells[key].emplace_back(bid, t);
  }
  for (auto& [k, list] : cuboid.cells) {
    (void)k;
    std::sort(list.begin(), list.end());
  }
  return cuboid;
}

void GridCuboid::CellKeyOfTuple(const Table& table, const EquiDepthGrid& grid,
                                Tid tid, Bid bid, CellKey* key) const {
  key->values.resize(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) {
    key->values[i] = table.sel(tid, dims[i]);
  }
  key->pid = PidOfBid(grid, bid);
}

void GridCuboid::AddTuple(const Table& table, const EquiDepthGrid& grid,
                          Tid tid, Bid bid, CellKey* key) {
  CellKeyOfTuple(table, grid, tid, bid, key);
  auto& list = cells[*key];
  // Keep the (bid, tid) order BuildGridCuboid sorts into, so per-bid runs
  // stay ascending for the retrieve step's binary search.
  list.insert(std::upper_bound(list.begin(), list.end(),
                               std::make_pair(bid, tid)),
              {bid, tid});
}

void GridCuboid::RemoveTuple(const Table& table, const EquiDepthGrid& grid,
                             Tid tid, Bid bid, CellKey* key) {
  CellKeyOfTuple(table, grid, tid, bid, key);
  auto cell = cells.find(*key);
  if (cell == cells.end()) return;
  auto& list = cell->second;
  auto it = std::lower_bound(list.begin(), list.end(),
                             std::make_pair(bid, tid));
  if (it != list.end() && it->first == bid && it->second == tid) {
    list.erase(it);
  }
  if (list.empty()) cells.erase(cell);
}

CuboidTidSource::CuboidTidSource(const GridCuboid* cuboid,
                                 const EquiDepthGrid* grid,
                                 std::vector<int32_t> cell_values)
    : cuboid_(cuboid), grid_(grid), cell_values_(std::move(cell_values)) {}

void CuboidTidSource::GetTids(Bid bid, IoSession* io, ExecStats* stats,
                              std::vector<Tid>* out) {
  out->clear();
  uint32_t pid = cuboid_->PidOfBid(*grid_, bid);
  auto it = buffered_.find(pid);
  if (it == buffered_.end()) {
    // get_pseudo_block: one (or more) cuboid page reads, then buffered so a
    // bid mapping to a previously retrieved pid costs nothing (§3.3.2).
    CellKey key{cell_values_, pid};
    auto cell = cuboid_->cells.find(key);
    const std::vector<std::pair<Bid, Tid>>* list =
        cell == cuboid_->cells.end() ? nullptr : &cell->second;
    uint64_t bytes = list ? list->size() * 8 + 16 : 16;
    uint64_t pages =
        std::max<uint64_t>(1, (bytes + io->page_size() - 1) /
                                  io->page_size());
    io->Access(IoCategory::kCuboid,
                  (static_cast<uint64_t>(CellKeyHash{}(key)) << 8), pages);
    it = buffered_.emplace(pid, list).first;
  }
  const auto* list = it->second;
  if (list == nullptr) return;
  auto lo = std::lower_bound(
      list->begin(), list->end(), std::make_pair(bid, Tid{0}));
  for (auto e = lo; e != list->end() && e->first == bid; ++e) {
    out->push_back(e->second);
  }
  (void)stats;
}

namespace {

/// Intersects two ascending tid runs into `out` with a galloping merge:
/// the shorter run drives, binary-searching forward in the longer one.
/// Degenerates to the linear two-pointer merge when the runs are of
/// comparable length.
void GallopingIntersect(const std::vector<Tid>& a, const std::vector<Tid>& b,
                        std::vector<Tid>* out) {
  out->clear();
  const std::vector<Tid>& small = a.size() <= b.size() ? a : b;
  const std::vector<Tid>& large = a.size() <= b.size() ? b : a;
  auto it = large.begin();
  for (Tid v : small) {
    // Gallop: double the step until the probe reaches v, then binary
    // search inside the last bracket.
    size_t step = 1;
    auto hi = it;
    while (hi != large.end() && *hi < v) {
      it = hi;
      if (static_cast<size_t>(large.end() - hi) <= step) {
        hi = large.end();
        break;
      }
      hi += step;
      step *= 2;
    }
    it = std::lower_bound(it, hi, v);
    if (it == large.end()) break;
    if (*it == v) {
      out->push_back(v);
      ++it;
    }
  }
}

}  // namespace

void IntersectTidSource::GetTids(Bid bid, IoSession* io, ExecStats* stats,
                                 std::vector<Tid>* out) {
  out->clear();
  std::vector<Tid> current, next, tmp;
  for (size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->GetTids(bid, io, stats, &tmp);
    // Cuboid lists are stored sorted by (bid, tid), so the per-bid run each
    // source emits is already ascending — no re-sort needed.
    assert(std::is_sorted(tmp.begin(), tmp.end()));
    if (i == 0) {
      current = tmp;
    } else {
      GallopingIntersect(current, tmp, &next);
      current.swap(next);
    }
    if (current.empty()) break;
  }
  *out = std::move(current);
}

void AllTidSource::GetTids(Bid bid, IoSession* io, ExecStats* stats,
                           std::vector<Tid>* out) {
  (void)io;
  (void)stats;
  // No cuboid involved: the block table itself is consulted during the
  // evaluate step; here we only enumerate membership.
  *out = blocks_->GetBaseBlockNoCharge(bid);
}

std::vector<ScoredTuple> GridNeighborhoodTopK(
    const Table& table, const EquiDepthGrid& grid,
    const BaseBlockTable& base_blocks, const TopKQuery& query,
    BlockTidSource* source, IoSession* io, ExecStats* stats) {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  const RankingFunction& f = *query.function;
  TopKHeap topk(query.k);

  // Search state: candidate blocks ordered by f(bid) (H list of §3.3.2).
  using Cand = std::pair<double, Bid>;
  std::priority_queue<Cand, std::vector<Cand>, std::greater<>> h;
  std::unordered_set<Bid> inserted;

  std::vector<double> start = f.Minimizer(Box::Unit(grid.num_dims()));
  Bid first = grid.BidOfPoint(start.data());
  h.push({f.LowerBound(grid.BoxOfBid(first)), first});
  inserted.insert(first);

  std::vector<Tid> tids;
  kernels::FusedScorer scorer(table, f, &topk, stats);
  while (!h.empty()) {
    auto [lb, bid] = h.top();
    h.pop();
    // Stop condition: S_k <= S_unseen (lb of the best remaining block).
    if (topk.KthScore() <= lb) break;

    // Retrieve + evaluate: the block's tuples go through the fused kernel
    // in one shot (§3.3.2 hands us tuples per block, so the batch boundary
    // is free).
    source->GetTids(bid, io, stats, &tids);
    if (!tids.empty()) {
      base_blocks.GetBaseBlock(bid, io);  // fetch ranking values
      scorer.ScoreBlock(tids.data(), tids.size());
    }
    // Expand neighborhood (Lemma 1).
    for (Bid nb : grid.Neighbors(bid)) {
      if (inserted.insert(nb).second) {
        h.push({f.LowerBound(grid.BoxOfBid(nb)), nb});
      }
    }
    stats->MergeMax(h.size());
  }

  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return topk.Sorted();
}

void ChargeCuboidBuild(const Table& table, IoSession& io,
                       const GridCuboid& cuboid, size_t index) {
  // Building a cuboid scans the relation once and writes the cuboid's
  // pseudo-block pages; the seed's constructors dropped this cost on the
  // floor ((void)pager), making construction_ms the only honest figure.
  table.ChargeFullScan(&io);
  uint64_t pages = std::max<uint64_t>(
      1, (cuboid.SizeBytes() + io.page_size() - 1) / io.page_size());
  io.Access(IoCategory::kCuboid, static_cast<uint64_t>(index) << 40, pages);
}

GridRankingCube::GridRankingCube(const Table& table, IoSession& io,
                                 GridCubeOptions options)
    : table_(table),
      grid_(table, {.block_size = options.block_size}),
      base_blocks_(table, grid_),
      block_size_(options.block_size),
      built_epoch_(table.epoch()) {
  Stopwatch watch;
  uint64_t pages_before = io.TotalPhysical();
  std::vector<std::vector<int>> sets = options.cuboid_dim_sets;
  if (sets.empty()) {
    std::vector<int> all(table.num_sel_dims());
    for (int d = 0; d < table.num_sel_dims(); ++d) all[d] = d;
    sets = AllSubsets(all);
  }
  cuboids_.reserve(sets.size());
  for (auto& dims : sets) {
    cuboids_.push_back(BuildGridCuboid(table, grid_, base_blocks_, dims));
    ChargeCuboidBuild(table, io, cuboids_.back(), cuboids_.size() - 1);
    cuboid_index_.emplace(cuboids_.back().dims, cuboids_.size() - 1);
  }
  construction_pages_ = io.TotalPhysical() - pages_before;
  construction_ms_ = watch.ElapsedMs();
}

Status ApplyGridDelta(const Table& table, const DeltaStore& delta,
                      const EquiDepthGrid& grid, BaseBlockTable* base_blocks,
                      std::vector<GridCuboid>* cuboids, uint64_t* built_epoch,
                      IoSession* io) {
  if (*built_epoch >= delta.epoch()) return Status::OK();  // empty: no-op
  std::vector<Tid> inserted, deleted;
  delta.ChangesSince(*built_epoch, &inserted, &deleted);

  // Apply inserts before deletes: same-tid order in the log is always
  // insert-then-delete, and distinct tids commute.
  std::unordered_set<Bid> touched_blocks;
  std::vector<std::unordered_set<CellKey, CellKeyHash>> touched_cells(
      cuboids->size());
  CellKey key;
  std::vector<double> point(table.num_rank_dims());
  for (Tid t : inserted) {
    table.CopyRankRow(t, point.data());
    Bid bid = grid.BidOfPoint(point.data());
    base_blocks->AddTuple(t, bid);
    touched_blocks.insert(bid);
    for (size_t c = 0; c < cuboids->size(); ++c) {
      (*cuboids)[c].AddTuple(table, grid, t, bid, &key);
      touched_cells[c].insert(key);
    }
  }
  for (Tid t : deleted) {
    Bid bid = base_blocks->BidOfTuple(t);
    base_blocks->RemoveTuple(t);
    touched_blocks.insert(bid);
    for (size_t c = 0; c < cuboids->size(); ++c) {
      (*cuboids)[c].RemoveTuple(table, grid, t, bid, &key);
      touched_cells[c].insert(key);
    }
  }

  // Honest maintenance I/O: the batch reads the delta rows from the heap
  // tail, then pays a read + write-back per distinct touched block/cell —
  // not the per-cuboid relation scans of a rebuild.
  if (io != nullptr) {
    if (!inserted.empty()) table.ChargeTailScan(io, inserted.front());
    for (Bid bid : touched_blocks) {
      io->Access(IoCategory::kBaseBlock, bid, 2);
    }
    for (size_t c = 0; c < cuboids->size(); ++c) {
      for (const CellKey& cell : touched_cells[c]) {
        io->Access(IoCategory::kCuboid,
                   static_cast<uint64_t>(CellKeyHash{}(cell)) << 8, 2);
      }
    }
  }
  *built_epoch = delta.epoch();
  return Status::OK();
}

Status GridRankingCube::ApplyDelta(const DeltaStore& delta, IoSession* io) {
  return ApplyGridDelta(table_, delta, grid_, &base_blocks_, &cuboids_,
                        &built_epoch_, io);
}

const GridCuboid* GridRankingCube::FindCuboid(
    const std::vector<int>& dims) const {
  std::vector<int> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  auto it = cuboid_index_.find(sorted);
  return it == cuboid_index_.end() ? nullptr : &cuboids_[it->second];
}

Result<std::vector<ScoredTuple>> GridRankingCube::TopK(const TopKQuery& query,
                                                       IoSession* io,
                                                       ExecStats* stats) const {
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
  const GridCuboid* cuboid = FindCuboid(qdims);
  if (cuboid == nullptr) {
    return Status::NotFound(
        "no materialized cuboid matches the query dimensions; use "
        "RankingFragments for partially materialized cubes");
  }
  std::vector<int32_t> values;
  ProjectPredicates(query.predicates, cuboid->dims, &values);
  CuboidTidSource source(cuboid, &grid_, std::move(values));
  return GridNeighborhoodTopK(table_, grid_, base_blocks_, query, &source,
                              io, stats);
}

size_t GridRankingCube::SizeBytes() const {
  size_t bytes = base_blocks_.SizeBytes();
  for (const auto& c : cuboids_) bytes += c.SizeBytes();
  return bytes;
}

}  // namespace rankcube
