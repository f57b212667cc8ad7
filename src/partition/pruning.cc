#include "partition/pruning.h"

#include <algorithm>

namespace rankcube {

bool KeyPredicateExcludes(const TopKQuery& query, int partition_dim,
                          const PartitionRange& range) {
  // Duplicate predicates are rejected by ValidateQuery, so the first match
  // is the only one.
  for (const Predicate& p : query.predicates) {
    if (p.dim == partition_dim) return !range.Contains(p.value);
  }
  return false;
}

ScatterPlan BuildScatterPlan(const TopKQuery& query, int partition_dim,
                             const std::vector<PartitionView>& parts) {
  ScatterPlan plan;
  for (size_t i = 0; i < parts.size(); ++i) {
    const PartitionView& v = parts[i];
    if (KeyPredicateExcludes(query, partition_dim, v.range)) {
      ++plan.pruned_by_predicate;
      continue;
    }
    if (!v.has_rows) {
      ++plan.skipped_empty;
      continue;
    }
    plan.candidates.push_back({i, query.function->LowerBound(*v.rank_box)});
  }
  std::sort(plan.candidates.begin(), plan.candidates.end(),
            [](const PartitionCandidate& a, const PartitionCandidate& b) {
              if (a.bound != b.bound) return a.bound < b.bound;
              return a.index < b.index;
            });
  return plan;
}

}  // namespace rankcube
