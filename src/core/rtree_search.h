// Branch-and-bound top-k search over an R-tree (Algorithm 3, §4.3): a
// candidate heap ordered by the ranking function's lower bound over node
// MBRs, with a pluggable boolean pruner. Used by:
//  * the signature ranking cube (pruner = signature tests),
//  * the ranking-first baseline (node pruner = accept-all; tuples verified
//    against the base table with random accesses),
//  * Ch6's rank-aware selection (progressive variant in join/).
#ifndef RANKCUBE_CORE_RTREE_SEARCH_H_
#define RANKCUBE_CORE_RTREE_SEARCH_H_

#include <vector>

#include "core/topk_query.h"
#include "func/kernels/kernels.h"
#include "index/rtree.h"

namespace rankcube {

/// Boolean-pruning hook for Algorithm 3. Paths are 1-based entry positions;
/// tuple paths include the leaf entry position.
class BooleanPruner {
 public:
  virtual ~BooleanPruner() = default;

  /// May the subtree rooted at `path` contain a qualifying tuple?
  /// (false => prune; must never produce false negatives).
  virtual bool MayContain(const std::vector<int>& node_path, IoSession* io,
                          ExecStats* stats) = 0;

  /// Does the tuple at `tuple_path` qualify? Exact.
  virtual bool Qualifies(Tid tid, const std::vector<int>& tuple_path,
                         IoSession* io, ExecStats* stats) = 0;
};

/// Accept-all pruner (no boolean predicates).
class NullPruner : public BooleanPruner {
 public:
  bool MayContain(const std::vector<int>&, IoSession*, ExecStats*) override {
    return true;
  }
  bool Qualifies(Tid, const std::vector<int>&, IoSession*, ExecStats*) override {
    return true;
  }
};

/// Scores every entry of an R-tree leaf through a per-query fused
/// BlockEvaluator (entries are exact copies of the table's ranking rows, so
/// the evaluator reads the columns directly), filling the parallel
/// tids/scores arrays and charging stats->tuples_evaluated. Shared by the
/// branch-and-bound search and the progressive ranked stream so the two
/// leaf paths cannot diverge. The evaluator is resolved once per query, not
/// per leaf.
inline void ScoreLeafEntries(const kernels::BlockEvaluator& eval,
                             const RTreeNode& node, std::vector<Tid>* tids,
                             std::vector<double>* scores, ExecStats* stats) {
  tids->resize(node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    (*tids)[i] = node.entries[i].tid;
  }
  scores->resize(tids->size());
  if (!tids->empty()) eval.Score(tids->data(), tids->size(), scores->data());
  stats->tuples_evaluated += tids->size();
}

/// Algorithm 3: progressive best-first search; halts when the k-th result
/// score is no worse than the best possible unseen score. `table` is the
/// relation the R-tree indexes: leaf entries are exact copies of its
/// ranking rows, so a whole leaf is scored with one
/// kernels::BlockEvaluator call instead of a scalar Evaluate per entry.
std::vector<ScoredTuple> RTreeBranchAndBoundTopK(const Table& table,
                                                 const RTree& rtree,
                                                 const TopKQuery& query,
                                                 BooleanPruner* pruner,
                                                 IoSession* io,
                                                 ExecStats* stats);

}  // namespace rankcube

#endif  // RANKCUBE_CORE_RTREE_SEARCH_H_
