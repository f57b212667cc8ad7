// Ranking functions with box lower bounds (the "lower-bound function" class
// of §1.2.1): given f over ranking dimensions and a domain region Omega, the
// lower bound of f over Omega can be derived. Every search algorithm in this
// repository (grid neighborhood search, R-tree branch-and-bound, index-merge)
// prunes with these bounds.
//
// Shape metadata drives algorithm selection:
//  * convex()              -> Ch3 neighborhood search is applicable (Lemma 1)
//  * MonotoneDirections()  -> Ch5 neighborhood expansion, monotone case
//  * SemiMonotoneCenter()  -> Ch5 neighborhood expansion, semi-monotone case
//  * otherwise             -> Ch5 threshold expansion (general case)
//
// A ranking function is defined once, as a ScoreExpr tree
// (func/score_expr.h). ExprFunction evaluates the tree, bounds it, and
// derives the metadata above from its structure; the six built-in classes
// at the bottom of this file are builders that hand ExprFunction the tree of
// one of the paper's function families.
#ifndef RANKCUBE_FUNC_RANKING_FUNCTION_H_
#define RANKCUBE_FUNC_RANKING_FUNCTION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "func/score_expr.h"

namespace rankcube {

/// Abstract scoring function over the R ranking dimensions of a table.
/// Points are passed as dense R-vectors; a function only reads the
/// dimensions in involved_dims(). Smaller scores are better (§1.2.1 assumes
/// score-ascending order throughout).
class RankingFunction {
 public:
  virtual ~RankingFunction() = default;

  /// Total ranking dimensionality R of the space this function lives in.
  virtual int num_dims() const = 0;

  /// Indices (into the R dims) this function actually reads.
  virtual const std::vector<int>& involved_dims() const = 0;

  /// Exact score of a point (array of R values).
  virtual double Evaluate(const double* point) const = 0;

  /// Lower bound of f over `box` (box has R dims). Must satisfy
  /// LowerBound(box) <= Evaluate(p) for every p in box.
  virtual double LowerBound(const Box& box) const = 0;

  /// A point inside `box` with score close to LowerBound(box); used to seed
  /// the Ch3 neighborhood search. The default probes a small lattice of
  /// corners and intermediate points over the involved dimensions.
  virtual std::vector<double> Minimizer(const Box& box) const;

  /// True when f is convex on its domain (Definition 1), enabling Lemma 1.
  virtual bool convex() const { return false; }

  /// If f is monotone, the per-involved-dimension direction: +1 when f grows
  /// with the dimension, -1 when it shrinks (order matches involved_dims()).
  virtual std::optional<std::vector<int>> MonotoneDirections() const {
    return std::nullopt;
  }

  /// If f is semi-monotone (§5.2.2): the center o such that f grows with
  /// |x_i - o_i| per involved dimension.
  virtual std::optional<std::vector<double>> SemiMonotoneCenter() const {
    return std::nullopt;
  }

  virtual std::string ToString() const = 0;

  /// The function as a ScoreExpr tree, or null when it has none. The result
  /// cache keys and certifies reuse on this tree.
  virtual ScoreExprPtr Expr() const { return nullptr; }

  double Evaluate(const std::vector<double>& p) const {
    return Evaluate(p.data());
  }
};

using RankingFunctionPtr = std::shared_ptr<const RankingFunction>;

/// Any ScoreExpr tree as a RankingFunction over R dimensions: the one
/// implementation of a ranking function. Evaluate walks the tree. The tree
/// is classified once, at construction; for a recognized shape, LowerBound
/// and Minimizer are the shape's closed forms over the plan's arrays and
/// the fused kernels score it. Unrecognized trees bound by interval
/// arithmetic (ScoreExpr::Range) and seed with a lattice probe — valid,
/// only looser. Monotone directions come from the tree's structure,
/// convexity and the semi-monotone center from the recognized shape.
class ExprFunction : public RankingFunction {
 public:
  /// `num_dims` is R, the table's ranking dimensionality; `name` prefixes
  /// ToString() (defaults to "expr").
  ExprFunction(int num_dims, ScoreExprPtr expr, std::string name = "");

  int num_dims() const override { return r_; }
  /// Ascending.
  const std::vector<int>& involved_dims() const override { return dims_; }
  double Evaluate(const double* p) const override { return expr_->Eval(p); }
  double LowerBound(const Box& box) const override;
  std::vector<double> Minimizer(const Box& box) const override;
  bool convex() const override { return convex_; }
  std::optional<std::vector<int>> MonotoneDirections() const override {
    return monotone_;
  }
  std::optional<std::vector<double>> SemiMonotoneCenter() const override {
    return semi_center_;
  }
  std::string ToString() const override;
  ScoreExprPtr Expr() const override { return expr_; }

  /// The classification the kernel layer dispatches on.
  const ExprPlan& plan() const { return plan_; }

 private:
  int r_;
  ScoreExprPtr expr_;
  std::string name_;
  std::vector<int> dims_;
  ExprPlan plan_;
  bool convex_ = false;
  std::optional<std::vector<int>> monotone_;
  std::optional<std::vector<double>> semi_center_;
};

/// f = sum_i w_i * x_i over the dimensions with non-zero weight. Convex and
/// monotone (weights may be negative, matching the thesis's remark that
/// convexity generalizes linear-monotone with non-negative weights).
class LinearFunction : public ExprFunction {
 public:
  /// `weights` has size R; zero entries are uninvolved dimensions.
  explicit LinearFunction(std::vector<double> weights);

  const std::vector<double>& weights() const { return w_; }

 private:
  std::vector<double> w_;
};

/// f = sum_i w_i * (x_i - t_i)^2 : the nearest-neighbor style distance query
/// (Q2 in Example 1). Convex and semi-monotone around the target when the
/// weights are non-negative.
class QuadraticDistance : public ExprFunction {
 public:
  /// `weights` size R (0 = uninvolved); `targets` size R.
  QuadraticDistance(std::vector<double> weights, std::vector<double> targets);

  /// The target clamped into `box` on every dimension, uninvolved ones
  /// included (the tree does not carry their targets).
  std::vector<double> Minimizer(const Box& box) const override;

 private:
  std::vector<double> t_;
};

/// f = sum_i w_i * |x_i - t_i| : L1 variant of the above.
class L1Distance : public ExprFunction {
 public:
  L1Distance(std::vector<double> weights, std::vector<double> targets);

  /// As QuadraticDistance::Minimizer.
  std::vector<double> Minimizer(const Box& box) const override;

 private:
  std::vector<double> t_;
};

/// f = (sum_i w_i * x_i)^2, e.g. the thesis's min-square-error query
/// fg = (2X - Y - Z)^2 (§4.4.2). Convex; monotone only when the weights
/// share a sign.
class SquaredLinear : public ExprFunction {
 public:
  explicit SquaredLinear(std::vector<double> weights);
};

/// fg = (x_a - x_b^2)^2 : the "general" non-convex query of §5.4.2.
class GeneralAB : public ExprFunction {
 public:
  GeneralAB(int num_dims, int a_dim, int b_dim);
};

/// fc = (x_a + x_b) / eta(x_b) with eta = 1 on [lo, hi] and 0 elsewhere:
/// the constrained query of §5.4.2 (score is +inf outside the constraint).
class ConstrainedSum : public ExprFunction {
 public:
  ConstrainedSum(int num_dims, int a_dim, int b_dim, double lo, double hi);
};

}  // namespace rankcube

#endif  // RANKCUBE_FUNC_RANKING_FUNCTION_H_
