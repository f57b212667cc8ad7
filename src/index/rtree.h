// R-tree over the ranking dimensions: the hierarchical partition template of
// Ch4 (signatures are built over its topology), the multi-dimensional index
// of Ch5, and the BBS substrate of Ch7. Supports Guttman-style insertion
// with quadratic node splitting (incremental maintenance needs the path
// update-set, §4.2.5) and STR bulk loading (fast offline construction).
#ifndef RANKCUBE_INDEX_RTREE_H_
#define RANKCUBE_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "storage/io_session.h"
#include "storage/table.h"

namespace rankcube {

/// Leaf payload: a tuple and its ranking-vector.
struct RTreeLeafEntry {
  Tid tid = 0;
  std::vector<double> point;
};

struct RTreeNode {
  uint32_t id = 0;
  bool is_leaf = true;
  Box mbr;
  std::vector<uint32_t> children;       ///< internal nodes
  std::vector<RTreeLeafEntry> entries;  ///< leaf nodes

  size_t fanout() const {
    return is_leaf ? entries.size() : children.size();
  }
};

/// A tuple whose R-tree path changed during an insert (§4.2.5). Paths are
/// 1-based entry positions root->leaf, including the position within the
/// leaf node; an empty old_path means the tuple is new.
struct PathUpdate {
  Tid tid = 0;
  std::vector<int> old_path;
  std::vector<int> new_path;
};

class RTree;

/// Shared incremental-maintenance pass for R-tree-backed structures
/// (signature cube, ranking_first): absorbs the table mutations after
/// `*built_epoch` — appended rows inserted, tombstoned stored rows removed
/// — and advances `*built_epoch` to the delta's epoch. When `updates` is
/// non-null the §4.2.5 path-update sets are collected (signature
/// maintenance needs them; tracking costs extra, pass null otherwise).
/// I/O charged to `io` (nullptr = uncharged, matching ApplyGridDelta): the
/// heap-tail read, one root-to-leaf descent per batch, and a read +
/// write-back per *distinct* touched leaf — billing per mutation would
/// charge the same leaf page over and over, which is exactly the locality
/// a clustered live feed exploits.
void ApplyRTreeDelta(RTree* rtree, const Table& table, const DeltaStore& delta,
                     uint64_t* built_epoch, std::vector<PathUpdate>* updates,
                     IoSession* io);

struct RTreeOptions {
  int max_entries = 0;  ///< M; 0 = derive from page size (§4.2.2 sizing)
};

class RTree {
 public:
  RTree(int dims, IoSession& io, RTreeOptions options = RTreeOptions());

  /// Bulk-loads with Sort-Tile-Recursive packing; tree must be empty.
  /// `dims` selects which ranking columns feed the tree's coordinates
  /// (nullptr = the first dims() columns); stored points use local order.
  /// Tombstoned rows of `table` are skipped.
  void BulkLoadSTR(const Table& table, const std::vector<int>* dims = nullptr);

  /// Inserts one tuple; returns the update set of tuples whose paths
  /// changed (including the inserted tuple, old_path empty). Pass
  /// track_updates = false during bulk construction to skip the (possibly
  /// large) path diff.
  std::vector<PathUpdate> Insert(Tid tid, const std::vector<double>& point,
                                 bool track_updates = true);

  /// Removes a stored tuple (lazy deletion: the leaf may go underfull or
  /// empty; no rebalancing, MBRs shrink up the path). Returns the update
  /// set: the removed tuple (new_path empty) plus the same-leaf entries
  /// whose positions shifted — exactly what signature maintenance (§4.2.5)
  /// needs to clear/move bits. No-op (empty set) for an absent tid.
  std::vector<PathUpdate> Delete(Tid tid, bool track_updates = true);

  /// All tuple paths (leaf entry position included), via one DFS; indexed
  /// by tid. Much cheaper than per-tuple TuplePath() calls.
  std::vector<std::vector<int>> AllTuplePaths() const;

  int dims() const { return dims_; }
  int max_entries() const { return max_entries_; }
  /// Leaf currently holding `tid` (stale for removed tids; 0 for unknown).
  uint32_t LeafOf(Tid tid) const {
    return tid < leaf_of_.size() ? leaf_of_[tid] : 0;
  }
  uint32_t root() const { return root_; }
  size_t num_nodes() const { return nodes_.size(); }
  const RTreeNode& node(uint32_t id) const { return nodes_[id]; }
  size_t num_tuples() const { return num_tuples_; }

  /// Leaf-node count (tree-shape statistic for the planner's cost model).
  size_t num_leaves() const {
    size_t n = 0;
    for (const auto& node : nodes_) n += node.is_leaf ? 1 : 0;
    return n;
  }

  /// Levels, root = level 1; leaves are at level depth().
  int depth() const;

  void ChargeNodeAccess(IoSession* io, uint32_t id) const {
    io->Access(IoCategory::kRTree, id);
  }

  /// 1-based child positions addressing node `id` from the root.
  std::vector<int> NodePath(uint32_t id) const;

  /// Charge the construction I/O of a freshly built tree to `io`: one
  /// relation scan (the build reads every tuple) plus the tree's pages
  /// written (category kRTree). Shared by the signature cube and the
  /// ranking_first factory so maintain-vs-rebuild page comparisons are
  /// honest on both sides.
  void ChargeBuild(const Table& table, IoSession& io) const;

  /// Path of a stored tuple, leaf entry position included (§4.2.1).
  std::vector<int> TuplePath(Tid tid) const;

  /// All tuple paths with the leaf entry position *excluded* (the node
  /// granularity used by join-signatures, §5.3.2). Result indexed by tid.
  std::vector<std::vector<int>> TupleNodePaths() const;

  size_t SizeBytes() const;

 private:
  uint32_t NewNode(bool is_leaf);
  /// MBR recomputation from `id` up to the root.
  void TightenToRoot(uint32_t id);
  uint32_t ChooseLeaf(const std::vector<double>& point) const;
  void RecomputeMbr(uint32_t id);
  /// Splits overfull `id`; returns the new sibling (appended to parent).
  uint32_t SplitNode(uint32_t id);
  void CollectTuplePaths(uint32_t id, std::vector<int>* prefix,
                         std::vector<PathUpdate>* out, bool as_old) const;
  int PosInParent(uint32_t id) const;

  int dims_;
  int max_entries_;
  int min_entries_;  ///< m = 0.4 M, at least 1
  uint32_t root_;
  size_t num_tuples_ = 0;
  std::vector<RTreeNode> nodes_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> leaf_of_;  ///< tid -> leaf node id
};

}  // namespace rankcube

#endif  // RANKCUBE_INDEX_RTREE_H_
