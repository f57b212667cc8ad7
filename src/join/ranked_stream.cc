#include "join/ranked_stream.h"

namespace rankcube {

CubeRankedStream::CubeRankedStream(const Table& table,
                                   const SignatureCube& cube,
                                   RankingFunctionPtr function,
                                   std::unique_ptr<BooleanPruner> pruner,
                                   IoSession* io, ExecStats* stats)
    : f_(std::move(function)),
      pruner_(std::move(pruner)),
      io_(io),
      stats_(stats),
      heap_(table, cube.rtree(), *f_) {}

bool CubeRankedStream::GetNext(Tid* tid, double* score) {
  while (!heap_.empty()) {
    const SearchEntry e = heap_.top();
    heap_.pop();
    if (e.is_tuple) {
      if (pruner_ == nullptr || pruner_->Qualifies(e.id, e.sid, io_, stats_)) {
        *tid = e.id;
        *score = e.score;
        return true;
      }
      continue;
    }
    if (pruner_ != nullptr && !pruner_->MayContain(e.sid, io_, stats_)) {
      continue;
    }
    heap_.Expand(e, io_, stats_);
  }
  return false;
}

double CubeRankedStream::BestPossibleNext() const {
  return heap_.empty() ? kInfScore : heap_.top().score;
}

}  // namespace rankcube
