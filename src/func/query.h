// Query model shared by every engine in the repository (§1.2.1):
//   select top k * from R
//   where A'_1 = a_1 and ... A'_s = a_s
//   order by f(N'_1, ..., N'_r)
#ifndef RANKCUBE_FUNC_QUERY_H_
#define RANKCUBE_FUNC_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "func/ranking_function.h"
#include "storage/table.h"

namespace rankcube {

/// Equality predicate on one selection (boolean) dimension.
struct Predicate {
  int dim = 0;        ///< selection-dimension index
  int32_t value = 0;  ///< required value

  bool operator==(const Predicate&) const = default;
};

/// A multi-dimensionally selected top-k query.
struct TopKQuery {
  std::vector<Predicate> predicates;  ///< conjunctive equality selections
  RankingFunctionPtr function;        ///< scoring; smaller is better
  int k = 10;

  std::string ToString() const {
    std::ostringstream os;
    os << "top-" << k << " where ";
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (i) os << " and ";
      os << "A" << predicates[i].dim << "=" << predicates[i].value;
    }
    if (predicates.empty()) os << "true";
    os << " order by " << (function ? function->ToString() : "<none>");
    return os.str();
  }
};

/// Shared sanity check applied by every engine before execution (the seed's
/// engines disagreed: cubes returned Status, baselines silently returned
/// empty vectors). All execution now funnels through this one helper so a
/// malformed query fails identically regardless of the engine.
inline Status ValidateQuery(const TopKQuery& query, const TableSchema& schema) {
  if (query.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(query.k));
  }
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  if (query.function->num_dims() != schema.num_rank_dims) {
    return Status::InvalidArgument(
        "ranking function covers " +
        std::to_string(query.function->num_dims()) + " dims but table has " +
        std::to_string(schema.num_rank_dims));
  }
  std::vector<bool> seen(schema.sel_cardinality.size(), false);
  for (const auto& p : query.predicates) {
    if (p.dim < 0 || p.dim >= schema.num_sel_dims()) {
      return Status::InvalidArgument("predicate dimension A" +
                                     std::to_string(p.dim) + " out of range");
    }
    if (p.value < 0 || p.value >= schema.sel_cardinality[p.dim]) {
      return Status::InvalidArgument(
          "predicate value " + std::to_string(p.value) + " out of range for A" +
          std::to_string(p.dim));
    }
    if (seen[p.dim]) {
      return Status::InvalidArgument("duplicate predicate on dimension A" +
                                     std::to_string(p.dim));
    }
    seen[p.dim] = true;
  }
  return Status::OK();
}

/// One ranked answer.
struct ScoredTuple {
  uint32_t tid = 0;
  double score = 0.0;

  bool operator<(const ScoredTuple& o) const {
    return score < o.score || (score == o.score && tid < o.tid);
  }
  bool operator==(const ScoredTuple&) const = default;
};

/// Bounded max-heap over scores: keeps the k smallest-scoring tuples seen;
/// `KthScore()` is the current S_k bound used by every stop condition.
/// A score that is not below kInfScore never enters: a tuple a gated
/// function excludes is not an answer, so an answer holds fewer than k
/// tuples when fewer than k score finitely.
class TopKHeap {
 public:
  explicit TopKHeap(int k) : k_(k) {}

  void Offer(Tid tid, double score) {
    if (!(score < kInfScore)) return;
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push_back({tid, score});
      std::push_heap(heap_.begin(), heap_.end(), Worse);
    } else if (!heap_.empty() && score < heap_.front().score) {
      ReplaceWorst(tid, score);
    }
  }

  /// Offers a block of scored tuples, filtering against the current S_k
  /// bound before touching the heap: a block whose tuples all score worse
  /// than KthScore() costs n compares and zero heap operations. Produces
  /// exactly the same heap state as n repeated Offer() calls.
  void OfferBatch(const Tid* tids, const double* scores, size_t n) {
    if (k_ <= 0) return;
    size_t i = 0;
    // Fill phase: until k results exist every finite score enters.
    for (; i < n && static_cast<int>(heap_.size()) < k_; ++i) {
      Offer(tids[i], scores[i]);
    }
    // Full: the worst kept score is finite, so beating it implies finite.
    for (; i < n; ++i) {
      if (scores[i] < heap_.front().score) ReplaceWorst(tids[i], scores[i]);
    }
  }

  bool Full() const { return static_cast<int>(heap_.size()) >= k_; }

  /// S_k: the k-th best score so far, +inf until k results exist. Stop
  /// tests compare it with `<=` against a bound alone: while the heap holds
  /// fewer than k rows, only a +inf bound (nothing finite left) stops.
  double KthScore() const {
    return Full() && k_ > 0 ? heap_.front().score : kInfScore;
  }

  /// Results in ascending score order.
  std::vector<ScoredTuple> Sorted() const {
    std::vector<ScoredTuple> v = heap_;
    std::sort(v.begin(), v.end());
    return v;
  }

  size_t size() const { return heap_.size(); }

 private:
  static bool Worse(const ScoredTuple& a, const ScoredTuple& b) {
    return a.score < b.score;  // max-heap on score
  }

  void ReplaceWorst(Tid tid, double score) {
    std::pop_heap(heap_.begin(), heap_.end(), Worse);
    heap_.back() = {tid, score};
    std::push_heap(heap_.begin(), heap_.end(), Worse);
  }

  int k_;
  std::vector<ScoredTuple> heap_;
};

/// Exact top-k by full in-memory evaluation; returns ascending scores. The
/// reference oracle: correctness tests compare every engine against it, and
/// the rank-mapping engine derives its optimal k-th-score bound from it
/// (no pages are charged — it reads the in-memory columns directly). It
/// scores each tuple with the scalar Evaluate and offers it alone, so it
/// shares no code with the kernels, FusedScorer or OfferBatch it checks.
inline std::vector<ScoredTuple> BruteForceTopK(const Table& table,
                                               const TopKQuery& query) {
  TopKHeap topk(query.k);
  std::vector<double> point(table.num_rank_dims());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
    if (!table.is_live(t)) continue;
    bool ok = true;
    for (const auto& p : query.predicates) {
      if (table.sel(t, p.dim) != p.value) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    table.CopyRankRow(t, point.data());
    topk.Offer(t, query.function->Evaluate(point.data()));
  }
  return topk.Sorted();
}

}  // namespace rankcube

#endif  // RANKCUBE_FUNC_QUERY_H_
