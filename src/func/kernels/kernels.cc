// Specialized scoring loops. This translation unit alone is compiled with
// -O3 -march=x86-64-v3 -ffp-contract=off (see CMakeLists.txt): AVX2 for the
// dense loops, contraction off so vector code is bit-identical to the
// baseline-compiled scalar paths (element-wise IEEE mul/add vectorize to
// the same results — only FMA could differ, and it is forbidden here and
// unavailable to the rest of the build).
//
// Two loops per shape:
//  * <Shape>Idx — arbitrary tids. gcc emits no gathers for col[tids[i]]
//    (and AVX2 gather intrinsics measured no faster than scalar on this
//    load-bound pattern), so these are unrolled scalar loops; their win
//    over per-dimension column passes is the single pass.
//  * <Shape>Dense — a consecutive tid run, contiguous column reads. These
//    are the loops that genuinely vectorize; CI requires every line tagged
//    `// VEC:` to appear in gcc's -fopt-info-vec optimized report
//    (tools/check_vectorization.sh). Runtime-dim fallbacks are untagged.
#include "func/kernels/kernels.h"

#include <strings.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace rankcube::kernels {

namespace {

// --------------------------------------------------------- score kernels --
//
// Every kernel reproduces the corresponding tree's Eval() floating-point
// fold exactly: terms accumulate in plan (fold) order, products associate
// left, squares are v*v. D is the compile-time involved-dim count; the
// inner j-loops fully unroll.

template <int D>
void LinearIdx(const BoundPlan& bp, const Tid* tids, size_t n, double* out) {
  const double* cols[D];
  double w[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j];
    w[j] = bp.weights[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * cols[j][t];
    out[i] = s;
  }
}

template <int D>
void LinearDense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* cols[D];
  double w[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j] + t0;
    w[j] = bp.weights[j];
  }
  for (size_t i = 0; i < n; ++i) {  // VEC: linear
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * cols[j][i];
    out[i] = s;
  }
}

void LinearDyn(const BoundPlan& bp, const Tid* tids, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < bp.d; ++j) s += bp.weights[j] * bp.cols[j][t];
    out[i] = s;
  }
}

template <int D>
void QuadraticIdx(const BoundPlan& bp, const Tid* tids, size_t n,
                  double* out) {
  const double* cols[D];
  double w[D], tg[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j];
    w[j] = bp.weights[j];
    tg[j] = bp.targets[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < D; ++j) {
      const double diff = cols[j][t] - tg[j];
      s += w[j] * diff * diff;
    }
    out[i] = s;
  }
}

template <int D>
void QuadraticDense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* cols[D];
  double w[D], tg[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j] + t0;
    w[j] = bp.weights[j];
    tg[j] = bp.targets[j];
  }
  for (size_t i = 0; i < n; ++i) {  // VEC: quadratic
    double s = 0.0;
    for (int j = 0; j < D; ++j) {
      const double diff = cols[j][i] - tg[j];
      s += w[j] * diff * diff;
    }
    out[i] = s;
  }
}

void QuadraticDyn(const BoundPlan& bp, const Tid* tids, size_t n,
                  double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < bp.d; ++j) {
      const double diff = bp.cols[j][t] - bp.targets[j];
      s += bp.weights[j] * diff * diff;
    }
    out[i] = s;
  }
}

template <int D>
void L1Idx(const BoundPlan& bp, const Tid* tids, size_t n, double* out) {
  const double* cols[D];
  double w[D], tg[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j];
    w[j] = bp.weights[j];
    tg[j] = bp.targets[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * std::abs(cols[j][t] - tg[j]);
    out[i] = s;
  }
}

template <int D>
void L1Dense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* cols[D];
  double w[D], tg[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j] + t0;
    w[j] = bp.weights[j];
    tg[j] = bp.targets[j];
  }
  for (size_t i = 0; i < n; ++i) {  // VEC: l1
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * std::abs(cols[j][i] - tg[j]);
    out[i] = s;
  }
}

void L1Dyn(const BoundPlan& bp, const Tid* tids, size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < bp.d; ++j) {
      s += bp.weights[j] * std::abs(bp.cols[j][t] - bp.targets[j]);
    }
    out[i] = s;
  }
}

template <int D>
void SquaredLinearIdx(const BoundPlan& bp, const Tid* tids, size_t n,
                      double* out) {
  const double* cols[D];
  double w[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j];
    w[j] = bp.weights[j];
  }
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * cols[j][t];
    out[i] = s * s;
  }
}

template <int D>
void SquaredLinearDense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* cols[D];
  double w[D];
  for (int j = 0; j < D; ++j) {
    cols[j] = bp.cols[j] + t0;
    w[j] = bp.weights[j];
  }
  for (size_t i = 0; i < n; ++i) {  // VEC: squared_linear
    double s = 0.0;
    for (int j = 0; j < D; ++j) s += w[j] * cols[j][i];
    out[i] = s * s;
  }
}

void SquaredLinearDyn(const BoundPlan& bp, const Tid* tids, size_t n,
                      double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    double s = 0.0;
    for (int j = 0; j < bp.d; ++j) s += bp.weights[j] * bp.cols[j][t];
    out[i] = s * s;
  }
}

void GeneralABIdx(const BoundPlan& bp, const Tid* tids, size_t n,
                  double* out) {
  const double* ca = bp.cols[0];
  const double* cb = bp.cols[1];
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    const double diff = ca[t] - cb[t] * cb[t];
    out[i] = diff * diff;
  }
}

void GeneralABDense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* ca = bp.cols[0] + t0;
  const double* cb = bp.cols[1] + t0;
  for (size_t i = 0; i < n; ++i) {  // VEC: general_ab
    const double diff = ca[i] - cb[i] * cb[i];
    out[i] = diff * diff;
  }
}

void ConstrainedSumIdx(const BoundPlan& bp, const Tid* tids, size_t n,
                       double* out) {
  const double* ca = bp.cols[0];
  const double* cb = bp.cols[1];
  const double lo = bp.band_lo;
  const double hi = bp.band_hi;
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    const double b = cb[t];
    // Branchless select keeps the band test out of the branch predictor.
    out[i] = (b < lo || b > hi) ? kInfScore : ca[t] + b;
  }
}

void ConstrainedSumDense(const BoundPlan& bp, Tid t0, size_t n, double* out) {
  const double* ca = bp.cols[0] + t0;
  const double* cb = bp.cols[1] + t0;
  const double lo = bp.band_lo;
  const double hi = bp.band_hi;
  for (size_t i = 0; i < n; ++i) {  // VEC: constrained_sum
    const double b = cb[i];
    out[i] = (b < lo || b > hi) ? kInfScore : ca[i] + b;
  }
}

}  // namespace

bool Enabled() {
  const char* v = std::getenv("RANKCUBE_FUSED_KERNELS");
  if (v == nullptr) return true;
  return !(std::strcmp(v, "0") == 0 || ::strcasecmp(v, "off") == 0 ||
           ::strcasecmp(v, "false") == 0);
}

bool IsConsecutiveRun(const Tid* tids, size_t n) {
  const Tid t0 = tids[0];
  Tid acc = 0;
  for (size_t i = 0; i < n; ++i) {  // VEC: run_detect
    acc |= tids[i] ^ (t0 + static_cast<Tid>(i));
  }
  return acc == 0;
}

bool Bind(const ExprPlan& plan, const Table& table, BoundPlan* bound) {
  if (plan.shape == FuncShape::kGeneric) return false;
  const int d = static_cast<int>(plan.dims.size());
  if (d == 0 || d > kMaxDims) return false;
  for (int j = 0; j < d; ++j) {
    const int dim = plan.dims[j];
    if (dim < 0 || dim >= table.num_rank_dims()) return false;
    bound->cols[j] = table.rank_col(dim);
    bound->weights[j] =
        j < static_cast<int>(plan.weights.size()) ? plan.weights[j] : 0.0;
    bound->targets[j] =
        j < static_cast<int>(plan.targets.size()) ? plan.targets[j] : 0.0;
  }
  bound->shape = plan.shape;
  bound->d = d;
  bound->band_lo = plan.band_lo;
  bound->band_hi = plan.band_hi;
  return true;
}

namespace {

template <template <int> class Pick>
Kernel PickByDim(int d) {
  switch (d) {
    case 1:
      return Pick<1>::Get();
    case 2:
      return Pick<2>::Get();
    case 3:
      return Pick<3>::Get();
    case 4:
      return Pick<4>::Get();
    default:
      return Pick<0>::Get();  // 5..kMaxDims: runtime-dim indexed loop
  }
}

template <int D>
struct PickLinear {
  static Kernel Get() { return {&LinearIdx<D>, &LinearDense<D>}; }
};
template <>
struct PickLinear<0> {
  static Kernel Get() { return {&LinearDyn, nullptr}; }
};

template <int D>
struct PickQuadratic {
  static Kernel Get() { return {&QuadraticIdx<D>, &QuadraticDense<D>}; }
};
template <>
struct PickQuadratic<0> {
  static Kernel Get() { return {&QuadraticDyn, nullptr}; }
};

template <int D>
struct PickL1 {
  static Kernel Get() { return {&L1Idx<D>, &L1Dense<D>}; }
};
template <>
struct PickL1<0> {
  static Kernel Get() { return {&L1Dyn, nullptr}; }
};

template <int D>
struct PickSquaredLinear {
  static Kernel Get() {
    return {&SquaredLinearIdx<D>, &SquaredLinearDense<D>};
  }
};
template <>
struct PickSquaredLinear<0> {
  static Kernel Get() { return {&SquaredLinearDyn, nullptr}; }
};

}  // namespace

Kernel Resolve(const BoundPlan& bound) {
  switch (bound.shape) {
    case FuncShape::kLinear:
      return PickByDim<PickLinear>(bound.d);
    case FuncShape::kQuadratic:
      return PickByDim<PickQuadratic>(bound.d);
    case FuncShape::kL1:
      return PickByDim<PickL1>(bound.d);
    case FuncShape::kSquaredLinear:
      return PickByDim<PickSquaredLinear>(bound.d);
    case FuncShape::kGeneralAB:
      return bound.d == 2 ? Kernel{&GeneralABIdx, &GeneralABDense}
                          : Kernel{};
    case FuncShape::kConstrainedSum:
      return bound.d == 2 ? Kernel{&ConstrainedSumIdx, &ConstrainedSumDense}
                          : Kernel{};
    case FuncShape::kGeneric:
      return {};
  }
  return {};
}

// --------------------------------------------------------- BlockEvaluator --

BlockEvaluator::BlockEvaluator(const Table& table, const RankingFunction& f)
    : table_(table), f_(f) {
  const auto* tree = dynamic_cast<const ExprFunction*>(&f);
  if (tree == nullptr || !Enabled()) return;
  BoundPlan bound;
  if (!Bind(tree->plan(), table, &bound)) return;
  kernel_ = Resolve(bound);
  if (kernel_.indexed != nullptr) bound_ = bound;
}

void BlockEvaluator::ScoreGeneric(const Tid* tids, size_t n,
                                  double* out) const {
  // The gather touches only involved_dims() — Evaluate never reads the
  // others. Evaluate itself is compiled with the baseline flags, so this
  // loop scores exactly as the scalar path does.
  const std::vector<int>& dims = f_.involved_dims();
  std::vector<double> point(f_.num_dims(), 0.0);
  std::vector<const double*> cols(dims.size());
  for (size_t j = 0; j < dims.size(); ++j) cols[j] = table_.rank_col(dims[j]);
  for (size_t i = 0; i < n; ++i) {
    const Tid t = tids[i];
    for (size_t j = 0; j < dims.size(); ++j) point[dims[j]] = cols[j][t];
    out[i] = f_.Evaluate(point.data());
  }
}

// ------------------------------------------------------------ FusedScorer --

const std::vector<Predicate> FusedScorer::kNoPredicates;

FusedScorer::FusedScorer(const Table& table, const RankingFunction& f,
                         const std::vector<Predicate>& predicates,
                         TopKHeap* topk, ExecStats* stats)
    : eval_(table, f), topk_(topk), stats_(stats) {
  buffer_.reserve(kBlock);
  preds_.reserve(predicates.size());
  for (const Predicate& p : predicates) {
    preds_.push_back({table.sel_col(p.dim), p.value});
  }
}

void FusedScorer::ScoreBlock(const Tid* tids, size_t n) {
  if (n == 0) return;
  const Tid* cur = tids;
  size_t m = n;

  // Predicate pass: column-direct branchless compaction, one predicate at a
  // time. Survivor order is tid order, exactly as the scalar early-exit
  // checks the call sites used to run.
  if (!preds_.empty()) {
    survivors_.resize(n);
    size_t w = 0;
    {
      const int32_t* col = preds_[0].col;
      const int32_t v = preds_[0].value;
      for (size_t i = 0; i < n; ++i) {
        const Tid t = tids[i];
        survivors_[w] = t;
        w += static_cast<size_t>(col[t] == v);
      }
    }
    for (size_t pi = 1; pi < preds_.size(); ++pi) {
      const int32_t* col = preds_[pi].col;
      const int32_t v = preds_[pi].value;
      size_t w2 = 0;
      for (size_t i = 0; i < w; ++i) {
        const Tid t = survivors_[i];
        survivors_[w2] = t;
        w2 += static_cast<size_t>(col[t] == v);
      }
      w = w2;
    }
    if (w == 0) return;
    cur = survivors_.data();
    m = w;
  }

  scores_.resize(m);
  eval_.Score(cur, m, scores_.data());
  stats_->tuples_evaluated += m;

  // The S_k threshold test lives in OfferBatch: m compares, zero heap
  // operations for a block that cannot improve the answer.
  topk_->OfferBatch(cur, scores_.data(), m);
}

}  // namespace rankcube::kernels
