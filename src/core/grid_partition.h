// Equi-depth grid partition of the ranking dimensions into base blocks
// (§3.2.2) plus the base block table. The number of bins per dimension is
// b = (T/P)^(1/R); bin boundaries are data quantiles kept as the cube's meta
// information and used to compute per-block ranking lower bounds.
#ifndef RANKCUBE_CORE_GRID_PARTITION_H_
#define RANKCUBE_CORE_GRID_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "storage/io_session.h"
#include "storage/table.h"

namespace rankcube {

using Bid = uint32_t;  ///< base block id

struct GridOptions {
  int block_size = 300;  ///< P: expected tuples per base block (§3.5.1)
};

class EquiDepthGrid {
 public:
  explicit EquiDepthGrid(const Table& table, GridOptions options = GridOptions());

  int num_dims() const { return dims_; }
  int bins_per_dim() const { return bins_; }
  uint32_t num_blocks() const;

  /// Bin of `value` along `dim` (equi-depth boundaries; last bin closed).
  int BinOf(int dim, double value) const;

  /// Block containing `point` (R-dimensional).
  Bid BidOfPoint(const double* point) const;

  /// Bin coordinates <-> bid (row-major, matching Example 3's layout).
  std::vector<int> CoordsOfBid(Bid bid) const;
  Bid BidOfCoords(const std::vector<int>& coords) const;

  /// Geometric region covered by a block, from the bin boundaries.
  Box BoxOfBid(Bid bid) const;

  /// Blocks differing by +-1 in exactly one bin coordinate (Lemma 1's
  /// neighborhood relation).
  std::vector<Bid> Neighbors(Bid bid) const;

  /// Bin boundaries of `dim`: bins_per_dim()+1 ascending values in [0,1].
  const std::vector<double>& boundaries(int dim) const {
    return boundaries_[dim];
  }

 private:
  int dims_;
  int bins_;
  std::vector<std::vector<double>> boundaries_;
};

/// The base block table T of the ranking cube triple <T, C, M> (§3.2.3):
/// bid -> tuples with their ranking values. Accessed with get_base_block.
class BaseBlockTable {
 public:
  BaseBlockTable(const Table& table, const EquiDepthGrid& grid);

  /// Tuples of one block; charges the block's pages (category kBaseBlock).
  const std::vector<Tid>& GetBaseBlock(Bid bid, IoSession* io) const;

  /// Membership view without I/O accounting (for in-memory enumeration).
  const std::vector<Tid>& GetBaseBlockNoCharge(Bid bid) const {
    return blocks_[bid];
  }

  /// Block id of every tuple (the new dimension B of §3.2.2).
  Bid BidOfTuple(Tid tid) const { return tuple_bid_[tid]; }

  /// Incremental maintenance: places an appended tuple in block `bid` /
  /// removes a deleted tuple from its block. Bin boundaries are part of the
  /// cube's frozen meta information, so the grid itself never changes.
  void AddTuple(Tid tid, Bid bid);
  void RemoveTuple(Tid tid);

  size_t SizeBytes() const;

 private:
  const Table& table_;
  std::vector<std::vector<Tid>> blocks_;
  std::vector<Bid> tuple_bid_;
  size_t row_bytes_;
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_GRID_PARTITION_H_
