// Branch-and-bound top-k search over an R-tree (Algorithm 3, §4.3): a
// candidate heap ordered by the ranking function's lower bound over node
// MBRs, with a pluggable boolean pruner. Used by:
//  * the signature ranking cube (pruner = signature tests),
//  * the ranking-first baseline (node pruner = accept-all; tuples verified
//    against the base table with random accesses),
//  * Ch6's rank-aware selection (progressive variant in join/).
//
// Candidates are addressed by SID (§4.2.1), the base-(M+1) number of their
// 1-based path from the root: the root is 0, the child at position p of
// node s is s*(M+1)+p, and a tuple's SID extends its leaf's by the entry's
// position. A candidate is a plain struct; no path is copied per push.
#ifndef RANKCUBE_CORE_RTREE_SEARCH_H_
#define RANKCUBE_CORE_RTREE_SEARCH_H_

#include <queue>
#include <vector>

#include "core/signature.h"
#include "core/topk_query.h"
#include "func/kernels/kernels.h"
#include "index/rtree.h"

namespace rankcube {

/// Boolean-pruning hook for Algorithm 3, called with SIDs.
class BooleanPruner {
 public:
  virtual ~BooleanPruner() = default;

  /// May the subtree of node `sid` contain a qualifying tuple?
  /// (false => prune; must never produce false negatives).
  virtual bool MayContain(Sid sid, IoSession* io, ExecStats* stats) = 0;

  /// Does tuple `tid`, whose leaf-entry SID is `sid`, qualify? Exact.
  virtual bool Qualifies(Tid tid, Sid sid, IoSession* io,
                         ExecStats* stats) = 0;
};

/// Accept-all pruner (no boolean predicates).
class NullPruner : public BooleanPruner {
 public:
  bool MayContain(Sid, IoSession*, ExecStats*) override { return true; }
  bool Qualifies(Tid, Sid, IoSession*, ExecStats*) override { return true; }
};

/// Accepts every node and verifies each candidate tuple's predicates by
/// fetching it from the base table (random access, charged): the "Ranking"
/// configuration of §4.4.1 and of the Ch7 skyline. Keeps a reference to
/// `preds`, which must outlive the pruner.
class TableVerifyPruner : public BooleanPruner {
 public:
  TableVerifyPruner(const Table& table, const std::vector<Predicate>& preds)
      : table_(table), preds_(preds) {}

  bool MayContain(Sid, IoSession*, ExecStats*) override { return true; }
  bool Qualifies(Tid tid, Sid, IoSession* io, ExecStats*) override;

 private:
  const Table& table_;
  const std::vector<Predicate>& preds_;
};

/// A candidate of a best-first R-tree search: a node keyed by its
/// ranking-function lower bound, or a tuple keyed by its exact score.
struct SearchEntry {
  double score;
  Sid sid;
  uint32_t id;  ///< node id, or the tuple's tid
  bool is_tuple;

  bool operator>(const SearchEntry& o) const { return score > o.score; }
};

/// The candidate heap of a best-first R-tree search, seeded with the root.
/// Algorithm 3 and the progressive ranked stream share it, so their node
/// expansion cannot diverge. `table` is the relation the R-tree indexes:
/// leaf entries are exact copies of its ranking rows, so a whole leaf is
/// scored with one kernels::BlockEvaluator call resolved once per search.
class BestFirstHeap {
 public:
  BestFirstHeap(const Table& table, const RTree& rtree,
                const RankingFunction& f);

  bool empty() const { return heap_.empty(); }
  const SearchEntry& top() const { return heap_.top(); }
  void pop() { heap_.pop(); }

  /// Expands node entry `e`, which the pruner admitted: charges the node
  /// access, then pushes a leaf's entries with their exact scores (a tuple
  /// is qualified only when popped) or an internal node's children with
  /// their MBR lower bounds, and records the heap peak in `stats`.
  void Expand(const SearchEntry& e, IoSession* io, ExecStats* stats);

 private:
  const RTree& rtree_;
  const RankingFunction& f_;
  kernels::BlockEvaluator eval_;
  std::priority_queue<SearchEntry, std::vector<SearchEntry>, std::greater<>>
      heap_;
  std::vector<Tid> leaf_tids_;  ///< leaf scoring scratch
  std::vector<double> leaf_scores_;
};

/// Algorithm 3: progressive best-first search; halts when the k-th result
/// score is no worse than the best possible unseen score.
std::vector<ScoredTuple> RTreeBranchAndBoundTopK(const Table& table,
                                                 const RTree& rtree,
                                                 const TopKQuery& query,
                                                 BooleanPruner* pruner,
                                                 IoSession* io,
                                                 ExecStats* stats);

}  // namespace rankcube

#endif  // RANKCUBE_CORE_RTREE_SEARCH_H_
