#include "core/rtree_search.h"

#include "common/stopwatch.h"

namespace rankcube {

bool TableVerifyPruner::Qualifies(Tid tid, Sid, IoSession* io, ExecStats*) {
  table_.ChargeRowFetch(io, tid);
  for (const auto& p : preds_) {
    if (table_.sel(tid, p.dim) != p.value) return false;
  }
  return true;
}

BestFirstHeap::BestFirstHeap(const Table& table, const RTree& rtree,
                             const RankingFunction& f)
    : rtree_(rtree), f_(f), eval_(table, f) {
  heap_.push({f_.LowerBound(rtree_.node(rtree_.root()).mbr), 0,
              rtree_.root(), false});
}

void BestFirstHeap::Expand(const SearchEntry& e, IoSession* io,
                           ExecStats* stats) {
  const RTreeNode& node = rtree_.node(e.id);
  rtree_.ChargeNodeAccess(io, e.id);
  const int M = rtree_.max_entries();
  if (node.is_leaf) {
    leaf_tids_.resize(node.entries.size());
    for (size_t i = 0; i < node.entries.size(); ++i) {
      leaf_tids_[i] = node.entries[i].tid;
    }
    leaf_scores_.resize(leaf_tids_.size());
    if (!leaf_tids_.empty()) {
      eval_.Score(leaf_tids_.data(), leaf_tids_.size(), leaf_scores_.data());
    }
    stats->tuples_evaluated += leaf_tids_.size();
    for (size_t i = 0; i < leaf_tids_.size(); ++i) {
      heap_.push({leaf_scores_[i], ChildSid(e.sid, i + 1, M), leaf_tids_[i],
                  true});
    }
  } else {
    for (size_t i = 0; i < node.children.size(); ++i) {
      const uint32_t child = node.children[i];
      heap_.push({f_.LowerBound(rtree_.node(child).mbr),
                  ChildSid(e.sid, i + 1, M), child, false});
    }
  }
  stats->MergeMax(heap_.size());
}

std::vector<ScoredTuple> RTreeBranchAndBoundTopK(const Table& table,
                                                 const RTree& rtree,
                                                 const TopKQuery& query,
                                                 BooleanPruner* pruner,
                                                 IoSession* io,
                                                 ExecStats* stats) {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  TopKHeap topk(query.k);
  BestFirstHeap heap(table, rtree, *query.function);
  while (!heap.empty()) {
    const SearchEntry e = heap.top();
    // Stop: f(topk.root) <= f(c_heap.root) (§4.3.2).
    if (topk.KthScore() <= e.score) break;
    heap.pop();

    if (e.is_tuple) {
      if (pruner->Qualifies(e.id, e.sid, io, stats)) {
        topk.Offer(e.id, e.score);
      }
      continue;
    }
    // Boolean pruning on the node before expansion (line 5 of Algorithm 3).
    if (!pruner->MayContain(e.sid, io, stats)) continue;
    heap.Expand(e, io, stats);
  }

  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return topk.Sorted();
}

}  // namespace rankcube
