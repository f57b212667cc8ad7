// Partition pruning + the scatter plan for cross-partition top-k.
//
// Two pruning mechanisms, applied in order:
//
//  1. Predicate pruning (static, before any I/O): an equality predicate on
//     the partitioning dimension `A_p = v` eliminates every partition whose
//     key range does not contain v — predicate ∩ partition bounds, the
//     cube-algebra containment test. Queries without a predicate on A_p
//     touch every partition and rely on (2).
//
//  2. Score-bound pruning (dynamic, during the gather): each partition
//     maintains a conservative bounding Box over its live rows' ranking
//     coordinates, so f->LowerBound(box) is a best-possible score for any
//     tuple it could contribute (smaller = better throughout the repo).
//     Candidates execute in ascending bound order; once the merged global
//     top-k holds k tuples with S_k (the k-th best score) strictly below
//     the next candidate's bound, every remaining partition is provably
//     unable to improve the answer — the paper's S_k threshold lifted from
//     tuples within a cube to whole partitions. The inequality is strict:
//     a partition whose bound EQUALS S_k may still hold an equal-score
//     tuple that wins the deterministic (score, partition, tid) tie-break,
//     so it must run.
//
// BuildScatterPlan computes (1) and the bound ordering for (2); the
// gather in partitioned_db.cc applies the threshold test before it queries
// each candidate.
#ifndef RANKCUBE_PARTITION_PRUNING_H_
#define RANKCUBE_PARTITION_PRUNING_H_

#include <cstddef>
#include <vector>

#include "common/geometry.h"
#include "func/query.h"
#include "partition/partition_manifest.h"

namespace rankcube {

/// Read-only snapshot of one partition, as the pruner sees it. `rank_box`
/// is meaningful only when `has_rows` (EmptyFor boxes have inverted
/// intervals and must not reach LowerBound).
struct PartitionView {
  PartitionRange range;
  const Box* rank_box = nullptr;
  bool has_rows = false;
};

/// One partition that survived static pruning, with its best-possible
/// score. `index` refers into the PartitionView vector handed to
/// BuildScatterPlan (== the partition snapshot order).
struct PartitionCandidate {
  size_t index = 0;
  double bound = 0.0;  ///< f->LowerBound(rank_box): no tuple scores below
};

struct ScatterPlan {
  /// Survivors in ascending (bound, index) order — the gather order.
  std::vector<PartitionCandidate> candidates;
  size_t pruned_by_predicate = 0;  ///< key range excluded by a predicate
  size_t skipped_empty = 0;        ///< no live rows ever; nothing to ask
};

/// Test (1): true when `query` has an equality predicate on
/// `partition_dim` whose value `range` does not contain, so no row of that
/// partition can match. Also decides which partitions' epochs a scatter
/// cache entry depends on.
bool KeyPredicateExcludes(const TopKQuery& query, int partition_dim,
                          const PartitionRange& range);

/// Static half of the scatter: predicate pruning + bound ordering.
/// `partition_dim` is the selection dimension the ranges cover; the query
/// is assumed already validated against the schema.
ScatterPlan BuildScatterPlan(const TopKQuery& query, int partition_dim,
                             const std::vector<PartitionView>& parts);

}  // namespace rankcube

#endif  // RANKCUBE_PARTITION_PRUNING_H_
