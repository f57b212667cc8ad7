#include "core/rtree_search.h"

#include <queue>

#include "common/stopwatch.h"

namespace rankcube {

namespace {

/// Heap entry: an R-tree node or a fully-scored data object.
struct HeapEntry {
  double score;  ///< lower bound (node) or exact score (tuple)
  bool is_tuple;
  uint32_t node_id;  ///< node entries
  Tid tid;           ///< tuple entries
  std::vector<int> path;

  bool operator>(const HeapEntry& o) const { return score > o.score; }
};

}  // namespace

std::vector<ScoredTuple> RTreeBranchAndBoundTopK(const Table& table,
                                                 const RTree& rtree,
                                                 const TopKQuery& query,
                                                 BooleanPruner* pruner,
                                                 IoSession* io,
                                                 ExecStats* stats) {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  const RankingFunction& f = *query.function;
  TopKHeap topk(query.k);

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  heap.push({f.LowerBound(rtree.node(rtree.root()).mbr), false, rtree.root(),
             0,
             {}});

  std::vector<Tid> leaf_tids;
  std::vector<double> leaf_scores;
  kernels::BlockEvaluator eval(table, f);
  while (!heap.empty()) {
    HeapEntry e = heap.top();
    // Stop: f(topk.root) <= f(c_heap.root) (§4.3.2).
    if (topk.KthScore() <= e.score) break;
    heap.pop();

    if (e.is_tuple) {
      if (pruner->Qualifies(e.tid, e.path, io, stats)) {
        topk.Offer(e.tid, e.score);
      }
      continue;
    }
    // Boolean pruning on the node before expansion (line 5 of Algorithm 3).
    if (!pruner->MayContain(e.path, io, stats)) continue;

    const RTreeNode& node = rtree.node(e.node_id);
    rtree.ChargeNodeAccess(io, e.node_id);
    if (node.is_leaf) {
      // The whole leaf is scored column-direct in one batch call; the
      // exact scores then enter the candidate heap (tuples stay lazy:
      // they are offered to the top-k only when popped, after boolean
      // verification).
      ScoreLeafEntries(eval, node, &leaf_tids, &leaf_scores, stats);
      for (size_t i = 0; i < node.entries.size(); ++i) {
        HeapEntry t;
        t.score = leaf_scores[i];
        t.is_tuple = true;
        t.tid = leaf_tids[i];
        t.path = e.path;
        t.path.push_back(static_cast<int>(i) + 1);
        heap.push(std::move(t));
      }
    } else {
      for (size_t i = 0; i < node.children.size(); ++i) {
        HeapEntry c;
        c.score = f.LowerBound(rtree.node(node.children[i]).mbr);
        c.is_tuple = false;
        c.node_id = node.children[i];
        c.path = e.path;
        c.path.push_back(static_cast<int>(i) + 1);
        heap.push(std::move(c));
      }
    }
    stats->MergeMax(heap.size());
  }

  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return topk.Sorted();
}

}  // namespace rankcube
