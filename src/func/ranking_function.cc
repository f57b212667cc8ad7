#include "func/ranking_function.h"

#include <algorithm>
#include <cmath>

namespace rankcube {

std::vector<double> RankingFunction::Minimizer(const Box& box) const {
  // Generic fallback: probe a small lattice (corners + midpoints) over the
  // involved dimensions, anchored at box.lo for uninvolved ones.
  const std::vector<int>& dims = involved_dims();
  std::vector<double> best(num_dims());
  for (int d = 0; d < num_dims(); ++d) best[d] = box[d].lo;
  double best_score = Evaluate(best.data());
  const int kSteps = 4;  // 5 probe values per involved dim
  std::vector<int> idx(dims.size(), 0);
  while (true) {
    std::vector<double> p = best;
    for (size_t j = 0; j < dims.size(); ++j) {
      const Interval& iv = box[dims[j]];
      p[dims[j]] = iv.lo + (iv.hi - iv.lo) * idx[j] / kSteps;
    }
    double s = Evaluate(p.data());
    if (s < best_score) {
      best_score = s;
      best = p;
    }
    size_t j = 0;
    for (; j < dims.size(); ++j) {
      if (++idx[j] <= kSteps) break;
      idx[j] = 0;
    }
    if (j == dims.size()) break;
  }
  return best;
}

// ---------------------------------------------------------- ExprFunction --

namespace {

/// min of x*x over x in iv.
double MinSquare(const Interval& iv) {
  if (iv.lo <= 0.0 && 0.0 <= iv.hi) return 0.0;
  return std::min(iv.lo * iv.lo, iv.hi * iv.hi);
}

/// Where on `iv` the distance term w * g(x - t) is smallest, for g = square
/// or abs: the target clamped into the interval when w >= 0, the endpoint
/// farthest from the target otherwise.
double DistanceArgMin(const Interval& iv, double w, double t) {
  if (w >= 0) return iv.Clamp(t);
  return t - iv.lo > iv.hi - t ? iv.lo : iv.hi;
}

}  // namespace

ExprFunction::ExprFunction(int num_dims, ScoreExprPtr expr, std::string name)
    : r_(num_dims), expr_(std::move(expr)), name_(std::move(name)) {
  std::vector<bool> involved(r_, false);
  expr_->CollectDims(&involved);
  for (int d = 0; d < r_; ++d) {
    if (involved[d]) dims_.push_back(d);
  }
  plan_ = ClassifyExpr(*expr_);

  bool weights_nonneg = true;
  for (double w : plan_.weights) weights_nonneg &= w >= 0.0;
  switch (plan_.shape) {
    case FuncShape::kLinear:
    case FuncShape::kSquaredLinear:
      convex_ = true;
      break;
    case FuncShape::kQuadratic:
    case FuncShape::kL1:
      convex_ = weights_nonneg;
      break;
    default:
      convex_ = false;
  }

  // Structural monotone directions over the normalized [0,1]^R domain; a
  // single unknown dimension forfeits the claim (conservative: engines that
  // need monotonicity simply are not offered it).
  Box unit = Box::Unit(static_cast<size_t>(r_));
  std::vector<int> dirs;
  dirs.reserve(dims_.size());
  bool all_known = true;
  for (int d : dims_) {
    std::optional<int> m = expr_->Monotonicity(d, unit);
    if (!m) {
      all_known = false;
      break;
    }
    dirs.push_back(*m == 0 ? +1 : *m);  // constant-in-dim is trivially both
  }
  if (all_known && !dims_.empty()) monotone_ = std::move(dirs);

  // Semi-monotone center for recognized distance shapes with non-negative
  // weights and one term per dimension.
  if ((plan_.shape == FuncShape::kQuadratic ||
       plan_.shape == FuncShape::kL1) &&
      weights_nonneg && plan_.dims.size() == dims_.size()) {
    std::vector<double> center(dims_.size(), 0.0);
    bool unique = true;
    std::vector<bool> seen(r_, false);
    for (size_t j = 0; j < plan_.dims.size(); ++j) {
      int d = plan_.dims[j];
      if (d < 0 || d >= r_ || seen[d]) {
        unique = false;
        break;
      }
      seen[d] = true;
      size_t pos = 0;
      while (dims_[pos] != d) ++pos;
      center[pos] = plan_.targets[j];
    }
    if (unique) semi_center_ = std::move(center);
  }
}

double ExprFunction::LowerBound(const Box& box) const {
  // Closed forms per recognized shape, over the plan's per-term arrays.
  // Each term is bounded on its own, so a tree that repeats a dimension
  // still gets a valid (if looser) bound.
  const ExprPlan& p = plan_;
  const size_t n = p.dims.size();
  switch (p.shape) {
    case FuncShape::kLinear: {
      double s = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const Interval& iv = box[p.dims[j]];
        s += p.weights[j] * (p.weights[j] >= 0 ? iv.lo : iv.hi);
      }
      return s;
    }
    case FuncShape::kQuadratic: {
      double s = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const double t = p.targets[j];
        const double diff =
            DistanceArgMin(box[p.dims[j]], p.weights[j], t) - t;
        s += p.weights[j] * diff * diff;
      }
      return s;
    }
    case FuncShape::kL1: {
      double s = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const double t = p.targets[j];
        s += p.weights[j] *
             std::abs(DistanceArgMin(box[p.dims[j]], p.weights[j], t) - t);
      }
      return s;
    }
    case FuncShape::kSquaredLinear: {
      // Range of the inner linear form, then the least square over it.
      double lo = 0.0, hi = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const double w = p.weights[j];
        const Interval& iv = box[p.dims[j]];
        if (w >= 0) {
          lo += w * iv.lo;
          hi += w * iv.hi;
        } else {
          lo += w * iv.hi;
          hi += w * iv.lo;
        }
      }
      return MinSquare({lo, hi});
    }
    case FuncShape::kGeneralAB: {
      const Interval& ia = box[p.dims[0]];
      const Interval& ib = box[p.dims[1]];
      const double b2_lo = MinSquare(ib);
      const double b2_hi = std::max(ib.lo * ib.lo, ib.hi * ib.hi);
      return MinSquare({ia.lo - b2_hi, ia.hi - b2_lo});
    }
    case FuncShape::kConstrainedSum: {
      const Interval& ib = box[p.dims[1]];
      if (ib.hi < p.band_lo || ib.lo > p.band_hi) return kInfScore;
      return box[p.dims[0]].lo + std::max(ib.lo, p.band_lo);
    }
    case FuncShape::kGeneric:
      break;
  }
  return expr_->Range(box).lo;
}

std::vector<double> ExprFunction::Minimizer(const Box& box) const {
  const ExprPlan& p = plan_;
  if (p.shape == FuncShape::kGeneric) return RankingFunction::Minimizer(box);
  const size_t n = p.dims.size();
  std::vector<double> x(r_);
  for (int d = 0; d < r_; ++d) x[d] = box[d].lo;
  switch (p.shape) {
    case FuncShape::kLinear:
      for (size_t j = 0; j < n; ++j) {
        if (p.weights[j] < 0) x[p.dims[j]] = box[p.dims[j]].hi;
      }
      break;
    case FuncShape::kQuadratic:
    case FuncShape::kL1:
      for (size_t j = 0; j < n; ++j) {
        x[p.dims[j]] =
            DistanceArgMin(box[p.dims[j]], p.weights[j], p.targets[j]);
      }
      break;
    case FuncShape::kSquaredLinear: {
      // Start at the corner minimizing the inner linear form, then walk
      // coordinates toward the opposite end until the inner value reaches
      // 0. If it never does, the opposite corner minimizes inner^2.
      double inner = 0.0;
      for (size_t j = 0; j < n; ++j) {
        const Interval& iv = box[p.dims[j]];
        x[p.dims[j]] = p.weights[j] >= 0 ? iv.lo : iv.hi;
        inner += p.weights[j] * x[p.dims[j]];
      }
      if (inner >= 0.0) break;  // the minimizing corner already
      for (size_t j = 0; j < n; ++j) {
        const double w = p.weights[j];
        const int d = p.dims[j];
        const double other = w >= 0 ? box[d].hi : box[d].lo;
        const double delta = w * (other - x[d]);  // >= 0 by construction
        if (inner + delta >= 0.0) {
          // Solve w * (x - x_d) = -inner within this coordinate.
          x[d] += -inner / w;
          break;
        }
        inner += delta;
        x[d] = other;
      }
      break;
    }
    case FuncShape::kGeneralAB: {
      // Pick b so that b^2 lands inside [alo, ahi] if possible; otherwise
      // the closest endpoint combination.
      const int a = p.dims[0], b = p.dims[1];
      const Interval& ia = box[a];
      const Interval& ib = box[b];
      double best = kInfScore;
      for (double bv :
           {ib.lo, ib.hi, ib.Clamp(0.0),
            ib.Clamp(std::sqrt(std::max(0.0, ia.lo))),
            ib.Clamp(std::sqrt(std::max(0.0, ia.hi)))}) {
        const double av = ia.Clamp(bv * bv);
        const double diff = av - bv * bv;
        const double s = diff * diff;
        if (s < best) {
          best = s;
          x[a] = av;
          x[b] = bv;
        }
      }
      break;
    }
    case FuncShape::kConstrainedSum: {
      // Stay inside the box even when it misses the constraint band (the
      // point then scores +inf, matching the +inf lower bound).
      const Interval& ib = box[p.dims[1]];
      x[p.dims[1]] = ib.Clamp(std::max(ib.lo, p.band_lo));
      break;
    }
    case FuncShape::kGeneric:
      break;
  }
  return x;
}

std::string ExprFunction::ToString() const {
  return (name_.empty() ? "expr" : name_) + "(" + expr_->ToString() + ")";
}

// -------------------------------------------------------------- builders --

namespace {

/// sum_d w_d * N_d over the non-zero weights, in ascending dimension order.
ScoreExprPtr LinearTree(const std::vector<double>& w) {
  std::vector<ScoreExprPtr> terms;
  for (size_t d = 0; d < w.size(); ++d) {
    if (w[d] == 0.0) continue;
    terms.push_back(ScoreExpr::Mul(
        {ScoreExpr::Const(w[d]), ScoreExpr::Var(static_cast<int>(d))}));
  }
  return ScoreExpr::Add(std::move(terms));
}

ScoreExprPtr QuadraticTree(const std::vector<double>& w,
                           const std::vector<double>& t) {
  // w * (x-t) * (x-t) as Mul[Const, Sub, Sub]: the fold the quadratic
  // kernel reproduces. The Sub node is shared so Range() squares the
  // interval instead of multiplying it by itself.
  std::vector<ScoreExprPtr> terms;
  for (size_t d = 0; d < w.size(); ++d) {
    if (w[d] == 0.0) continue;
    ScoreExprPtr diff = ScoreExpr::Sub(ScoreExpr::Var(static_cast<int>(d)),
                                       ScoreExpr::Const(t[d]));
    terms.push_back(ScoreExpr::Mul({ScoreExpr::Const(w[d]), diff, diff}));
  }
  return ScoreExpr::Add(std::move(terms));
}

ScoreExprPtr L1Tree(const std::vector<double>& w,
                    const std::vector<double>& t) {
  std::vector<ScoreExprPtr> terms;
  for (size_t d = 0; d < w.size(); ++d) {
    if (w[d] == 0.0) continue;
    terms.push_back(ScoreExpr::Mul(
        {ScoreExpr::Const(w[d]),
         ScoreExpr::Abs(ScoreExpr::Sub(ScoreExpr::Var(static_cast<int>(d)),
                                       ScoreExpr::Const(t[d])))}));
  }
  return ScoreExpr::Add(std::move(terms));
}

int Dims(const std::vector<double>& w) { return static_cast<int>(w.size()); }

}  // namespace

LinearFunction::LinearFunction(std::vector<double> weights)
    : ExprFunction(Dims(weights), LinearTree(weights), "linear"),
      w_(std::move(weights)) {}

QuadraticDistance::QuadraticDistance(std::vector<double> weights,
                                     std::vector<double> targets)
    : ExprFunction(Dims(weights), QuadraticTree(weights, targets), "l2dist"),
      t_(std::move(targets)) {}

std::vector<double> QuadraticDistance::Minimizer(const Box& box) const {
  std::vector<double> p(num_dims());
  for (int d = 0; d < num_dims(); ++d) p[d] = box[d].Clamp(t_[d]);
  return p;
}

L1Distance::L1Distance(std::vector<double> weights, std::vector<double> targets)
    : ExprFunction(Dims(weights), L1Tree(weights, targets), "l1dist"),
      t_(std::move(targets)) {}

std::vector<double> L1Distance::Minimizer(const Box& box) const {
  std::vector<double> p(num_dims());
  for (int d = 0; d < num_dims(); ++d) p[d] = box[d].Clamp(t_[d]);
  return p;
}

SquaredLinear::SquaredLinear(std::vector<double> weights)
    : ExprFunction(Dims(weights), ScoreExpr::Square(LinearTree(weights)),
                   "sqlinear") {}

GeneralAB::GeneralAB(int num_dims, int a_dim, int b_dim)
    : ExprFunction(num_dims,
                   ScoreExpr::Square(ScoreExpr::Sub(
                       ScoreExpr::Var(a_dim),
                       ScoreExpr::Square(ScoreExpr::Var(b_dim)))),
                   "general") {}

ConstrainedSum::ConstrainedSum(int num_dims, int a_dim, int b_dim, double lo,
                               double hi)
    : ExprFunction(num_dims,
                   ScoreExpr::Gate(ScoreExpr::Add({ScoreExpr::Var(a_dim),
                                                   ScoreExpr::Var(b_dim)}),
                                   b_dim, lo, hi),
                   "constrained") {}

}  // namespace rankcube
