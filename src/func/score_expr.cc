#include "func/score_expr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

namespace rankcube {

namespace {

/// Interval product with the IEEE corner cases blunted: any NaN among the
/// endpoint products (0 * inf from a gated subtree) widens to the
/// everything-interval, which is still a valid enclosure.
Interval IntervalMul(const Interval& a, const Interval& b) {
  const double p[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  Interval r{p[0], p[0]};
  for (double v : p) {
    if (std::isnan(v)) return {-kInfScore, kInfScore};
    r.lo = std::min(r.lo, v);
    r.hi = std::max(r.hi, v);
  }
  return r;
}

/// Range of x*x given the range of x (non-negative, unlike IntervalMul of
/// an interval with itself, which forgets the two factors are equal).
Interval IntervalSquare(const Interval& x) {
  const double a = x.lo * x.lo, b = x.hi * x.hi;
  if (x.lo <= 0.0 && 0.0 <= x.hi) return {0.0, std::max(a, b)};
  return {std::min(a, b), std::max(a, b)};
}

Interval IntervalAbs(const Interval& x) {
  const double a = std::abs(x.lo), b = std::abs(x.hi);
  if (x.lo <= 0.0 && 0.0 <= x.hi) return {0.0, std::max(a, b)};
  return {std::min(a, b), std::max(a, b)};
}

/// Sign of a node over `domain`: +1 when provably >= 0 everywhere, -1 when
/// provably <= 0, nullopt otherwise.
std::optional<int> RangeSign(const ScoreExpr& e, const Box& domain) {
  Interval r = e.Range(domain);
  if (r.lo >= 0.0) return +1;
  if (r.hi <= 0.0) return -1;
  return std::nullopt;
}

std::optional<int> Flip(std::optional<int> m) {
  if (!m) return std::nullopt;
  return -*m;
}

/// Add-style combination: directions must agree (0 is neutral).
std::optional<int> CombineMono(std::optional<int> a, std::optional<int> b) {
  if (!a || !b) return std::nullopt;
  if (*a == 0) return b;
  if (*b == 0 || *a == *b) return a;
  return std::nullopt;
}

}  // namespace

// ------------------------------------------------------------- factories --

struct ScoreExpr::Gated : ScoreExpr {
  Gated(Key key, double lo, double hi)
      : ScoreExpr(key, ExprKind::kGate), band_lo(lo), band_hi(hi) {}
  double band_lo, band_hi;
};

double ScoreExpr::band_lo() const {
  return kind_ == ExprKind::kGate ? static_cast<const Gated*>(this)->band_lo
                                  : 0.0;
}

double ScoreExpr::band_hi() const {
  return kind_ == ExprKind::kGate ? static_cast<const Gated*>(this)->band_hi
                                  : 0.0;
}

ScoreExprPtr ScoreExpr::Const(double value) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kConst);
  e->value_ = value;
  return e;
}

ScoreExprPtr ScoreExpr::Var(int dim) {
  // Nodes are immutable, so every tree shares one node per dimension
  // (three of the ten nodes of a 3-dimension linear function).
  constexpr int kShared = 64;
  auto make = [](int d) {
    auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kVar);
    e->dim_ = d;
    return e;
  };
  static const std::array<ScoreExprPtr, kShared> shared = [&make] {
    std::array<ScoreExprPtr, kShared> vars;
    for (int d = 0; d < kShared; ++d) vars[d] = make(d);
    return vars;
  }();
  if (dim >= 0 && dim < kShared) return shared[dim];
  return make(dim);
}

ScoreExprPtr ScoreExpr::Add(std::vector<ScoreExprPtr> children) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kAdd);
  e->children_ = std::move(children);
  return e;
}

ScoreExprPtr ScoreExpr::Mul(std::vector<ScoreExprPtr> children) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kMul);
  e->children_ = std::move(children);
  return e;
}

ScoreExprPtr ScoreExpr::Sub(ScoreExprPtr a, ScoreExprPtr b) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kSub);
  e->children_ = {std::move(a), std::move(b)};
  return e;
}

ScoreExprPtr ScoreExpr::Abs(ScoreExprPtr child) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kAbs);
  e->children_ = {std::move(child)};
  return e;
}

ScoreExprPtr ScoreExpr::Square(ScoreExprPtr child) {
  auto e = std::make_shared<ScoreExpr>(Key(), ExprKind::kSquare);
  e->children_ = {std::move(child)};
  return e;
}

ScoreExprPtr ScoreExpr::Gate(ScoreExprPtr child, int dim, double lo,
                             double hi) {
  auto e = std::make_shared<Gated>(Key(), lo, hi);
  e->dim_ = dim;
  e->children_ = {std::move(child)};
  return e;
}

// ------------------------------------------------------------ evaluation --

double ScoreExpr::Eval(const double* point) const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_;
    case ExprKind::kVar:
      return point[dim_];
    case ExprKind::kAdd: {
      double s = 0.0;
      for (const auto& c : children_) s += c->Eval(point);
      return s;
    }
    case ExprKind::kMul: {
      double s = children_[0]->Eval(point);
      for (size_t i = 1; i < children_.size(); ++i) {
        s *= children_[i]->Eval(point);
      }
      return s;
    }
    case ExprKind::kSub:
      return children_[0]->Eval(point) - children_[1]->Eval(point);
    case ExprKind::kAbs:
      return std::abs(children_[0]->Eval(point));
    case ExprKind::kSquare: {
      const double v = children_[0]->Eval(point);
      return v * v;
    }
    case ExprKind::kGate: {
      const double x = point[dim_];
      if (x < band_lo() || x > band_hi()) return kInfScore;
      return children_[0]->Eval(point);
    }
  }
  return 0.0;  // unreachable
}

Interval ScoreExpr::Range(const Box& box) const {
  switch (kind_) {
    case ExprKind::kConst:
      return {value_, value_};
    case ExprKind::kVar:
      return box[dim_];
    case ExprKind::kAdd: {
      Interval r{0.0, 0.0};
      for (const auto& c : children_) {
        Interval cr = c->Range(box);
        r.lo += cr.lo;
        r.hi += cr.hi;
      }
      return r;
    }
    case ExprKind::kMul: {
      // Fold left; a pointer-shared adjacent pair (the w*(x-t)*(x-t) idiom
      // the built-in quadratic emits) is ranged as one square so the bound
      // stays non-negative.
      Interval r{1.0, 1.0};
      size_t i = 0;
      if (children_.size() == 1 ||
          children_[0].get() != children_[1].get()) {
        r = children_[0]->Range(box);
        i = 1;
      }
      while (i < children_.size()) {
        if (i + 1 < children_.size() &&
            children_[i].get() == children_[i + 1].get()) {
          r = IntervalMul(r, IntervalSquare(children_[i]->Range(box)));
          i += 2;
        } else {
          r = IntervalMul(r, children_[i]->Range(box));
          i += 1;
        }
      }
      return r;
    }
    case ExprKind::kSub: {
      Interval a = children_[0]->Range(box);
      Interval b = children_[1]->Range(box);
      return {a.lo - b.hi, a.hi - b.lo};
    }
    case ExprKind::kAbs:
      return IntervalAbs(children_[0]->Range(box));
    case ExprKind::kSquare:
      return IntervalSquare(children_[0]->Range(box));
    case ExprKind::kGate: {
      const Interval& iv = box[dim_];
      if (iv.hi < band_lo() || iv.lo > band_hi()) {
        return {kInfScore, kInfScore};
      }
      // Inside the box the gate only passes points within the band:
      // restrict the dimension before bounding the body (the same
      // tightening the constrained-sum closed form applies).
      Box refined = box;
      refined[dim_] = {std::max(iv.lo, band_lo()),
                       std::min(iv.hi, band_hi())};
      return children_[0]->Range(refined);
    }
  }
  return {-kInfScore, kInfScore};  // unreachable
}

namespace {

/// max |e(x)| over the box, from interval arithmetic; kInfScore when the
/// range is unbounded (gate outside its band).
double MaxAbs(const ScoreExpr& e, const Box& box) {
  Interval r = e.Range(box);
  if (!std::isfinite(r.lo) || !std::isfinite(r.hi)) return kInfScore;
  return std::max(std::abs(r.lo), std::abs(r.hi));
}

/// The structure-oblivious fallback: |a - b| <= the widest separation of
/// the two ranges. Sound but loose — only reached when the trees stop
/// being structurally parallel.
double RangeDiff(const ScoreExpr& a, const ScoreExpr& b, const Box& box) {
  Interval ra = a.Range(box);
  Interval rb = b.Range(box);
  if (!std::isfinite(ra.lo) || !std::isfinite(ra.hi) ||
      !std::isfinite(rb.lo) || !std::isfinite(rb.hi)) {
    return kInfScore;
  }
  return std::max(std::abs(ra.hi - rb.lo), std::abs(rb.hi - ra.lo));
}

}  // namespace

double MaxAbsDiff(const ScoreExpr& a, const ScoreExpr& b, const Box& box) {
  if (&a == &b) return 0.0;  // shared subtree: identical by construction
  if (a.kind() != b.kind() || a.children().size() != b.children().size()) {
    return RangeDiff(a, b, box);
  }
  switch (a.kind()) {
    case ExprKind::kConst:
      return std::abs(a.value() - b.value());
    case ExprKind::kVar:
      return a.dim() == b.dim() ? 0.0 : RangeDiff(a, b, box);
    case ExprKind::kAdd: {
      // |sum a_i - sum b_i| <= sum |a_i - b_i| pairwise.
      double d = 0.0;
      for (size_t i = 0; i < a.children().size(); ++i) {
        d += MaxAbsDiff(*a.children()[i], *b.children()[i], box);
      }
      return std::min(d, kInfScore);
    }
    case ExprKind::kSub: {
      double d = MaxAbsDiff(*a.children()[0], *b.children()[0], box) +
                 MaxAbsDiff(*a.children()[1], *b.children()[1], box);
      return std::min(d, kInfScore);
    }
    case ExprKind::kAbs:
      // ||x| - |y|| <= |x - y|.
      return MaxAbsDiff(*a.children()[0], *b.children()[0], box);
    case ExprKind::kSquare: {
      // |x^2 - y^2| = |x - y| * |x + y|.
      double d = MaxAbsDiff(*a.children()[0], *b.children()[0], box);
      if (d == 0.0) return 0.0;
      double scale =
          MaxAbs(*a.children()[0], box) + MaxAbs(*b.children()[0], box);
      return std::min(d * scale, kInfScore);
    }
    case ExprKind::kMul: {
      // Telescope: prod(a) - prod(b) = sum_i prod(a_{<i}) * (a_i - b_i)
      // * prod(b_{>i}); bound each factor by its max magnitude. A zero
      // pairwise diff zeroes its term exactly, whatever the scales.
      const size_t n = a.children().size();
      double total = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double d = MaxAbsDiff(*a.children()[i], *b.children()[i], box);
        if (d == 0.0) continue;
        double term = d;
        for (size_t j = 0; j < i; ++j) {
          term *= MaxAbs(*a.children()[j], box);
        }
        for (size_t j = i + 1; j < n; ++j) {
          term *= MaxAbs(*b.children()[j], box);
        }
        total += term;
      }
      return std::min(total, kInfScore);
    }
    case ExprKind::kGate: {
      // Identical gates agree (+inf == +inf) outside the band and differ
      // only through their bodies inside it; different gates have a region
      // where one side is +inf and the other finite — unboundable.
      if (a.dim() != b.dim() || a.band_lo() != b.band_lo() ||
          a.band_hi() != b.band_hi()) {
        return kInfScore;
      }
      const Interval& iv = box[a.dim()];
      if (iv.hi < a.band_lo() || iv.lo > a.band_hi()) return 0.0;
      Box refined = box;
      refined[a.dim()] = {std::max(iv.lo, a.band_lo()),
                         std::min(iv.hi, a.band_hi())};
      return MaxAbsDiff(*a.children()[0], *b.children()[0], refined);
    }
  }
  return kInfScore;  // unreachable
}

void ScoreExpr::CollectDims(std::vector<bool>* involved) const {
  if (kind_ == ExprKind::kVar || kind_ == ExprKind::kGate) {
    if (dim_ >= 0 && dim_ < static_cast<int>(involved->size())) {
      (*involved)[dim_] = true;
    }
  }
  for (const auto& c : children_) c->CollectDims(involved);
}

std::optional<int> ScoreExpr::Monotonicity(int dim, const Box& domain) const {
  switch (kind_) {
    case ExprKind::kConst:
      return 0;
    case ExprKind::kVar:
      return dim_ == dim ? +1 : 0;
    case ExprKind::kAdd: {
      std::optional<int> acc = 0;
      for (const auto& c : children_) {
        acc = CombineMono(acc, c->Monotonicity(dim, domain));
        if (!acc) return std::nullopt;
      }
      return acc;
    }
    case ExprKind::kSub:
      return CombineMono(children_[0]->Monotonicity(dim, domain),
                         Flip(children_[1]->Monotonicity(dim, domain)));
    case ExprKind::kMul: {
      // Monotone when exactly one factor depends on the dimension and every
      // other factor has constant sign over the domain.
      std::optional<int> dep_mono = 0;
      int sign = +1;
      for (const auto& c : children_) {
        std::optional<int> m = c->Monotonicity(dim, domain);
        if (m.has_value() && *m == 0) {
          std::optional<int> s = RangeSign(*c, domain);
          if (!s) return std::nullopt;
          sign *= *s;
          continue;
        }
        if (dep_mono.has_value() && *dep_mono != 0) return std::nullopt;
        if (!m) return std::nullopt;
        dep_mono = m;
      }
      if (!dep_mono || *dep_mono == 0) return 0;
      return *dep_mono * sign;
    }
    case ExprKind::kAbs:
    case ExprKind::kSquare: {
      std::optional<int> m = children_[0]->Monotonicity(dim, domain);
      if (m.has_value() && *m == 0) return 0;
      if (!m) return std::nullopt;
      std::optional<int> s = RangeSign(*children_[0], domain);
      if (!s) return std::nullopt;
      return *m * *s;
    }
    case ExprKind::kGate: {
      if (dim_ == dim) return std::nullopt;  // the gate is a jump
      return children_[0]->Monotonicity(dim, domain);
    }
  }
  return std::nullopt;  // unreachable
}

std::string ScoreExpr::ToString() const {
  std::ostringstream os;
  auto join = [&](const char* op) {
    os << "(";
    for (size_t i = 0; i < children_.size(); ++i) {
      if (i) os << " " << op << " ";
      os << children_[i]->ToString();
    }
    os << ")";
  };
  switch (kind_) {
    case ExprKind::kConst:
      os << value_;
      break;
    case ExprKind::kVar:
      os << "N" << dim_;
      break;
    case ExprKind::kAdd:
      join("+");
      break;
    case ExprKind::kMul:
      join("*");
      break;
    case ExprKind::kSub:
      os << "(" << children_[0]->ToString() << " - "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kAbs:
      os << "|" << children_[0]->ToString() << "|";
      break;
    case ExprKind::kSquare:
      os << children_[0]->ToString() << "^2";
      break;
    case ExprKind::kGate:
      os << "gate(N" << dim_ << " in [" << band_lo() << "," << band_hi()
         << "]; " << children_[0]->ToString() << ")";
      break;
  }
  return os.str();
}

// -------------------------------------------------------- classification --

namespace {

bool IsConst(const ScoreExpr& e) { return e.kind() == ExprKind::kConst; }
bool IsVar(const ScoreExpr& e) { return e.kind() == ExprKind::kVar; }

/// w * N_d as Mul[Const, Var] / Mul[Var, Const] / bare Var (w = 1, exact
/// since 1.0 * x == x).
bool MatchLinearTerm(const ScoreExpr& e, int* dim, double* w) {
  if (IsVar(e)) {
    *dim = e.dim();
    *w = 1.0;
    return true;
  }
  if (e.kind() != ExprKind::kMul || e.children().size() != 2) return false;
  const ScoreExpr& a = *e.children()[0];
  const ScoreExpr& b = *e.children()[1];
  if (IsConst(a) && IsVar(b)) {
    *dim = b.dim();
    *w = a.value();
    return true;
  }
  if (IsVar(a) && IsConst(b)) {
    *dim = a.dim();
    *w = b.value();
    return true;
  }
  return false;
}

/// N_d - t as Sub(Var, Const).
bool MatchShiftedVar(const ScoreExpr& e, int* dim, double* t) {
  if (e.kind() != ExprKind::kSub) return false;
  const ScoreExpr& a = *e.children()[0];
  const ScoreExpr& b = *e.children()[1];
  if (!IsVar(a) || !IsConst(b)) return false;
  *dim = a.dim();
  *t = b.value();
  return true;
}

/// w*(N_d - t)*(N_d - t) as Mul[Const, Sub, Sub] with matching Subs — the
/// fold order the quadratic kernel reproduces.
bool MatchQuadTerm(const ScoreExpr& e, int* dim, double* w, double* t) {
  if (e.kind() != ExprKind::kMul || e.children().size() != 3) return false;
  if (!IsConst(*e.children()[0])) return false;
  int d1, d2;
  double t1, t2;
  if (!MatchShiftedVar(*e.children()[1], &d1, &t1)) return false;
  if (!MatchShiftedVar(*e.children()[2], &d2, &t2)) return false;
  if (d1 != d2 || t1 != t2) return false;
  *dim = d1;
  *w = e.children()[0]->value();
  *t = t1;
  return true;
}

/// w*|N_d - t| as Mul[Const, Abs(Sub)] or bare Abs(Sub) (w = 1).
bool MatchL1Term(const ScoreExpr& e, int* dim, double* w, double* t) {
  const ScoreExpr* abs_node = nullptr;
  if (e.kind() == ExprKind::kAbs) {
    abs_node = &e;
    *w = 1.0;
  } else if (e.kind() == ExprKind::kMul && e.children().size() == 2 &&
             IsConst(*e.children()[0]) &&
             e.children()[1]->kind() == ExprKind::kAbs) {
    abs_node = e.children()[1].get();
    *w = e.children()[0]->value();
  } else {
    return false;
  }
  return MatchShiftedVar(*abs_node->children()[0], dim, t);
}

/// Matches a sum (or a single bare term) against a per-term matcher.
template <typename TermFn>
bool MatchSum(const ScoreExpr& e, TermFn&& term) {
  if (e.kind() == ExprKind::kAdd) {
    if (e.children().empty()) return false;
    for (const auto& c : e.children()) {
      if (!term(*c)) return false;
    }
    return true;
  }
  return term(e);
}

bool MatchLinear(const ScoreExpr& e, ExprPlan* plan) {
  return MatchSum(e, [plan](const ScoreExpr& c) {
    int dim;
    double w;
    if (!MatchLinearTerm(c, &dim, &w)) return false;
    plan->dims.push_back(dim);
    plan->weights.push_back(w);
    return true;
  });
}

}  // namespace

ExprPlan ClassifyExpr(const ScoreExpr& expr) {
  ExprPlan plan;

  // constrained-sum: Gate(N_b in band; N_a + N_b).
  if (expr.kind() == ExprKind::kGate) {
    const ScoreExpr& body = *expr.children()[0];
    if (body.kind() == ExprKind::kAdd && body.children().size() == 2 &&
        IsVar(*body.children()[0]) && IsVar(*body.children()[1]) &&
        body.children()[1]->dim() == expr.dim()) {
      plan.shape = FuncShape::kConstrainedSum;
      plan.dims = {body.children()[0]->dim(), body.children()[1]->dim()};
      plan.band_lo = expr.band_lo();
      plan.band_hi = expr.band_hi();
      return plan;
    }
    return plan;  // other gated bodies stay generic
  }

  if (expr.kind() == ExprKind::kSquare) {
    const ScoreExpr& inner = *expr.children()[0];
    // general-AB: (N_a - N_b^2)^2.
    if (inner.kind() == ExprKind::kSub && IsVar(*inner.children()[0]) &&
        inner.children()[1]->kind() == ExprKind::kSquare &&
        IsVar(*inner.children()[1]->children()[0])) {
      plan.shape = FuncShape::kGeneralAB;
      plan.dims = {inner.children()[0]->dim(),
                   inner.children()[1]->children()[0]->dim()};
      return plan;
    }
    // squared-linear: (sum w_i N_i)^2.
    if (MatchLinear(inner, &plan)) {
      plan.shape = FuncShape::kSquaredLinear;
      return plan;
    }
    plan = ExprPlan();
    return plan;
  }

  if (MatchLinear(expr, &plan)) {
    plan.shape = FuncShape::kLinear;
    return plan;
  }
  plan = ExprPlan();

  bool quad = MatchSum(expr, [&plan](const ScoreExpr& c) {
    int dim;
    double w, t;
    if (!MatchQuadTerm(c, &dim, &w, &t)) return false;
    plan.dims.push_back(dim);
    plan.weights.push_back(w);
    plan.targets.push_back(t);
    return true;
  });
  if (quad) {
    plan.shape = FuncShape::kQuadratic;
    return plan;
  }
  plan = ExprPlan();

  bool l1 = MatchSum(expr, [&plan](const ScoreExpr& c) {
    int dim;
    double w, t;
    if (!MatchL1Term(c, &dim, &w, &t)) return false;
    plan.dims.push_back(dim);
    plan.weights.push_back(w);
    plan.targets.push_back(t);
    return true;
  });
  if (l1) {
    plan.shape = FuncShape::kL1;
    return plan;
  }
  return ExprPlan();
}

}  // namespace rankcube
