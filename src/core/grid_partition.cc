#include "core/grid_partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace rankcube {

EquiDepthGrid::EquiDepthGrid(const Table& table, GridOptions options)
    : dims_(table.num_rank_dims()) {
  const double t = static_cast<double>(std::max<size_t>(1, table.num_rows()));
  const double p = static_cast<double>(std::max(1, options.block_size));
  bins_ = std::max(1,
                   static_cast<int>(std::round(std::pow(t / p, 1.0 / dims_))));

  boundaries_.resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    std::vector<double> col(table.rank_col(d),
                            table.rank_col(d) + table.num_rows());
    std::sort(col.begin(), col.end());
    auto& b = boundaries_[d];
    b.resize(bins_ + 1);
    b[0] = 0.0;
    b[bins_] = 1.0;
    for (int i = 1; i < bins_; ++i) {
      size_t idx = static_cast<size_t>(
          static_cast<double>(col.size()) * i / bins_);
      idx = std::min(idx, col.empty() ? 0 : col.size() - 1);
      b[i] = col.empty() ? static_cast<double>(i) / bins_ : col[idx];
      b[i] = std::max(b[i], b[i - 1]);  // keep monotone under duplicates
    }
  }
}

uint32_t EquiDepthGrid::num_blocks() const {
  uint32_t n = 1;
  for (int d = 0; d < dims_; ++d) n *= static_cast<uint32_t>(bins_);
  return n;
}

int EquiDepthGrid::BinOf(int dim, double value) const {
  const auto& b = boundaries_[dim];
  // Bin i covers [b[i], b[i+1]); the last bin is closed at 1.
  int bin = static_cast<int>(
      std::upper_bound(b.begin() + 1, b.end() - 1, value) - (b.begin() + 1));
  return std::min(bin, bins_ - 1);
}

Bid EquiDepthGrid::BidOfPoint(const double* point) const {
  Bid bid = 0;
  for (int d = 0; d < dims_; ++d) {
    bid = bid * static_cast<Bid>(bins_) + static_cast<Bid>(BinOf(d, point[d]));
  }
  return bid;
}

std::vector<int> EquiDepthGrid::CoordsOfBid(Bid bid) const {
  std::vector<int> coords(dims_);
  for (int d = dims_ - 1; d >= 0; --d) {
    coords[d] = static_cast<int>(bid % static_cast<Bid>(bins_));
    bid /= static_cast<Bid>(bins_);
  }
  return coords;
}

Bid EquiDepthGrid::BidOfCoords(const std::vector<int>& coords) const {
  Bid bid = 0;
  for (int d = 0; d < dims_; ++d) {
    bid = bid * static_cast<Bid>(bins_) + static_cast<Bid>(coords[d]);
  }
  return bid;
}

Box EquiDepthGrid::BoxOfBid(Bid bid) const {
  std::vector<int> coords = CoordsOfBid(bid);
  Box box(dims_);
  for (int d = 0; d < dims_; ++d) {
    box[d] = {boundaries_[d][coords[d]], boundaries_[d][coords[d] + 1]};
  }
  return box;
}

std::vector<Bid> EquiDepthGrid::Neighbors(Bid bid) const {
  std::vector<Bid> out;
  std::vector<int> coords = CoordsOfBid(bid);
  for (int d = 0; d < dims_; ++d) {
    for (int delta : {-1, +1}) {
      int v = coords[d] + delta;
      if (v < 0 || v >= bins_) continue;
      std::vector<int> c = coords;
      c[d] = v;
      out.push_back(BidOfCoords(c));
    }
  }
  return out;
}

BaseBlockTable::BaseBlockTable(const Table& table, const EquiDepthGrid& grid)
    : table_(table), row_bytes_(8 + 8 * table.num_rank_dims()) {
  blocks_.resize(grid.num_blocks());
  // Column-direct bid assignment: one pass per ranking dimension over its
  // contiguous column, folding each tuple's bin into the row-major bid —
  // no per-tuple point gather. Agrees with BidOfPoint because both go
  // through EquiDepthGrid::BinOf.
  tuple_bid_.assign(table.num_rows(), 0);
  for (int d = 0; d < table.num_rank_dims(); ++d) {
    const double* col = table.rank_col(d);
    const Bid bins = static_cast<Bid>(grid.bins_per_dim());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      tuple_bid_[t] =
          tuple_bid_[t] * bins + static_cast<Bid>(grid.BinOf(d, col[t]));
    }
  }
  // tuple_bid_ covers every heap row (deletes after the build look their
  // block up here), but only live rows enter the block lists.
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
    if (!table.is_live(t)) continue;
    blocks_[tuple_bid_[t]].push_back(t);
  }
}

void BaseBlockTable::AddTuple(Tid tid, Bid bid) {
  if (tuple_bid_.size() <= tid) tuple_bid_.resize(tid + 1, 0);
  tuple_bid_[tid] = bid;
  // Appended tids exceed every existing member, so the block list stays
  // tid-ascending (the order the intersection merge asserts).
  blocks_[bid].push_back(tid);
}

void BaseBlockTable::RemoveTuple(Tid tid) {
  auto& block = blocks_[tuple_bid_[tid]];
  auto it = std::find(block.begin(), block.end(), tid);
  if (it != block.end()) block.erase(it);
}

const std::vector<Tid>& BaseBlockTable::GetBaseBlock(Bid bid,
                                                     IoSession* io) const {
  const auto& block = blocks_[bid];
  uint64_t pages =
      std::max<uint64_t>(1, (block.size() * row_bytes_ + io->page_size() -
                             1) /
                                io->page_size());
  io->Access(IoCategory::kBaseBlock, bid, pages);
  return block;
}

size_t BaseBlockTable::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& b : blocks_) bytes += 16 + b.size() * row_bytes_;
  return bytes;
}

}  // namespace rankcube
