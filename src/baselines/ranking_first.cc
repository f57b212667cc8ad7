#include "baselines/baselines.h"

namespace rankcube {

Result<std::vector<ScoredTuple>> RankingFirst::TopK(const TopKQuery& query,
                                                    IoSession* io,
                                                    ExecStats* stats) const {
  RC_RETURN_IF_ERROR(ValidateQuery(query, table_.schema()));
  TableVerifyPruner pruner(table_, query.predicates);
  return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
}

}  // namespace rankcube
