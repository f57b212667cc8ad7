// Fused scoring kernels (the "schedule" half of the Halide-style split):
// ClassifyExpr flattens a ranking function's ScoreExpr tree into an ExprPlan
// (func/score_expr.h) once, when the ExprFunction is built; this layer binds
// that plan to table columns and dispatches to loops template-instantiated
// on (function shape × involved-dim count). It is the one block-scoring
// path of the repository:
//
//   BlockEvaluator  scores a block of tids: the specialized kernel when one
//                   applies, otherwise one generic gather-and-Evaluate loop
//                   (unrecognized trees, functions without a tree, and
//                   RANKCUBE_FUSED_KERNELS=0).
//   FusedScorer     predicate mask -> BlockEvaluator on the survivors ->
//                   S_k threshold test before any heap traffic
//                   (TopKHeap::OfferBatch), fused into one pass. Every
//                   engine call site uses either this or BlockEvaluator.
//
// Each specialized shape has two loops. The *indexed* loop takes arbitrary
// tids: it is single-pass and unrolled but inherently scalar — gcc emits no
// gather instructions for col[tids[i]], so scattered scoring is bound by
// the loads, not SIMD (AVX2 gather intrinsics measure no faster). The
// *dense* loop fires when a block is a consecutive tid run — which is what
// every scan call site (table scan, delta overlay, grid base blocks)
// produces — and reads the columns contiguously, which genuinely
// vectorizes (~5x over indexed, verified by CI). Run detection is a
// vectorized O(n) check per block.
//
// Dispatch resolves ONCE per query (at BlockEvaluator construction), not
// per block. The generic loop is slower, never different: every kernel
// reproduces the scalar Evaluate()'s floating-point operation order
// exactly, so kernels on/off is bit-identical (enforced by the parity
// tests, which compare with ==).
//
// kernels.cc is compiled with -O3 -march=x86-64-v3 -ffp-contract=off
// (CMake per-source flags): AVX2 for the dense loops, contraction off so
// no FMA changes a result vs the baseline-compiled scalar path. CI
// verifies the marked loops actually vectorize
// (tools/check_vectorization.sh).
#ifndef RANKCUBE_FUNC_KERNELS_KERNELS_H_
#define RANKCUBE_FUNC_KERNELS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "core/topk_query.h"
#include "func/query.h"
#include "func/score_expr.h"
#include "storage/table.h"

namespace rankcube::kernels {

/// Most involved dimensions a bound kernel supports; wider functions use the
/// generic loop. 1..4 get fully unrolled instantiations, 5..kMaxDims a
/// runtime-dim loop.
inline constexpr int kMaxDims = 8;

/// Tuples per flush: same block size the old BatchScorer used (amortizes
/// dispatch, keeps tids + scores in L1).
inline constexpr size_t kBlock = 1024;

/// Kill switch: false when the environment variable RANKCUBE_FUSED_KERNELS
/// is "0"/"off"/"false" (any case). Read at BlockEvaluator construction —
/// tests flip it between sequential runs to prove dispatch never changes
/// results.
bool Enabled();

/// An ExprPlan with its columns resolved against a table: everything a
/// kernel reads, laid out flat. Valid as long as the table's columns are
/// (i.e. until the next AddRow/Insert — the same contract as rank_col()).
struct BoundPlan {
  FuncShape shape = FuncShape::kGeneric;
  int d = 0;  ///< involved-dim count (fold order, matches cols/weights)
  const double* cols[kMaxDims] = {};
  double weights[kMaxDims] = {};
  double targets[kMaxDims] = {};
  double band_lo = 0.0;  ///< kConstrainedSum: band on cols[1]
  double band_hi = 0.0;
};

/// Scores n arbitrary tuples: out[i] = f(tids[i]).
using IndexedFn = void (*)(const BoundPlan&, const Tid*, size_t, double*);
/// Scores the consecutive run [t0, t0+n): out[i] = f(t0 + i).
using DenseFn = void (*)(const BoundPlan&, Tid, size_t, double*);

/// A resolved pair of specialized loops for one bound plan. `indexed` being
/// null means no kernel applies; `dense` may be null independently (the
/// runtime-dim fallbacks are indexed-only).
struct Kernel {
  IndexedFn indexed = nullptr;
  DenseFn dense = nullptr;
};

/// Resolves `plan`'s columns against `table`. False when the plan is
/// generic, empty, too wide, or names a dimension the table lacks.
bool Bind(const ExprPlan& plan, const Table& table, BoundPlan* bound);

/// The specialized loops for a bound plan ({} if none exist).
Kernel Resolve(const BoundPlan& bound);

/// True when tids[0..n) is the consecutive run tids[0], tids[0]+1, ...
/// (vectorized check; n must be > 0).
bool IsConsecutiveRun(const Tid* tids, size_t n);

/// Runs the kernel on one block, taking the dense loop when the block is a
/// consecutive run.
inline void RunKernel(const Kernel& k, const BoundPlan& bound,
                      const Tid* tids, size_t n, double* out) {
  if (k.dense != nullptr && n >= 8 && IsConsecutiveRun(tids, n)) {
    k.dense(bound, tids[0], n, out);
  } else {
    k.indexed(bound, tids, n, out);
  }
}

/// Score-only evaluator for engines that keep their own offer discipline
/// (R-tree leaves, ranked streams, SPJR, certified cache re-rank). Reads
/// the plan the ExprFunction classified at construction and resolves its
/// kernel once; Score() is then one indirect call per block, or the
/// generic loop when no kernel applies.
class BlockEvaluator {
 public:
  BlockEvaluator(const Table& table, const RankingFunction& f);

  /// out[i] = f(tuple tids[i]); bit-identical to the scalar Evaluate.
  void Score(const Tid* tids, size_t n, double* out) const {
    if (kernel_.indexed != nullptr) {
      RunKernel(kernel_, bound_, tids, n, out);
    } else {
      ScoreGeneric(tids, n, out);
    }
  }

  /// True when a specialized kernel scores the blocks.
  bool fused() const { return kernel_.indexed != nullptr; }

 private:
  /// One gather into a point vector and one virtual Evaluate per tuple.
  void ScoreGeneric(const Tid* tids, size_t n, double* out) const;

  const Table& table_;
  const RankingFunction& f_;
  BoundPlan bound_;
  Kernel kernel_;
};

/// The fused predicate/score/threshold funnel: call sites push candidate
/// tids (already liveness-filtered — tombstones are the caller's concern);
/// the scorer applies the query's equality predicates column-direct, scores
/// survivors through its BlockEvaluator, and offers through the
/// threshold-aware OfferBatch, so a block worse than S_k costs compares but
/// zero heap operations. +inf scores (tuples a gate excludes) never enter
/// the heap: TopKHeap refuses them.
///
/// `stats->tuples_evaluated` counts predicate survivors (exact scores
/// computed).
class FusedScorer {
 public:
  FusedScorer(const Table& table, const RankingFunction& f,
              const std::vector<Predicate>& predicates, TopKHeap* topk,
              ExecStats* stats);

  /// Predicate-free variant (call sites whose tids are already selected).
  FusedScorer(const Table& table, const RankingFunction& f, TopKHeap* topk,
              ExecStats* stats)
      : FusedScorer(table, f, kNoPredicates, topk, stats) {}

  /// Buffers one candidate; flushes a full block automatically.
  void Add(Tid tid) {
    buffer_.push_back(tid);
    if (buffer_.size() >= kBlock) Flush();
  }

  /// Filters, scores, and offers one caller-blocked batch immediately
  /// (grid blocks, merged leaves, candidate lists). Independent of Add().
  void ScoreBlock(const Tid* tids, size_t n);

  /// Drains the Add() buffer; call once after the scan loop.
  void Flush() {
    if (!buffer_.empty()) {
      ScoreBlock(buffer_.data(), buffer_.size());
      buffer_.clear();
    }
  }

  bool fused() const { return eval_.fused(); }

 private:
  static const std::vector<Predicate> kNoPredicates;

  struct BoundPred {
    const int32_t* col;
    int32_t value;
  };

  BlockEvaluator eval_;
  TopKHeap* topk_;
  ExecStats* stats_;
  std::vector<BoundPred> preds_;
  std::vector<Tid> buffer_;     ///< Add() accumulator
  std::vector<Tid> survivors_;  ///< predicate compaction scratch
  std::vector<double> scores_;
};

}  // namespace rankcube::kernels

#endif  // RANKCUBE_FUNC_KERNELS_KERNELS_H_
