// Ranking functions as a small expression tree: a ScoreExpr is a closed
// algebra of arithmetic nodes over the R ranking dimensions. It is the one
// definition of a ranking function in this repository — ExprFunction
// (func/ranking_function.h) wraps a tree as a RankingFunction, and every
// built-in function class is a builder of such a tree. Two consumers read
// the tree:
//
//  * ExprFunction evaluates it (Eval), bounds it over boxes, and derives
//    monotone / semi-monotone / convex metadata structurally.
//
//  * ClassifyExpr pattern-matches the tree against the kernel-specializable
//    shapes (linear / quadratic / L1 / squared-linear / general-AB /
//    constrained-sum) and flattens it into an ExprPlan. The fused kernel
//    layer (func/kernels/) binds that plan to table columns, and
//    ExprFunction computes the shape's closed-form box bound from it. A
//    user tree that happens to be, say, linear gets the same loop and bound
//    as LinearFunction itself; anything unrecognized falls back to the
//    generic tree walk and interval bounds and is merely slower, never
//    wrong.
//
// Bit-exactness contract: Eval() uses fixed left-to-right folds, and the
// specialized kernels reproduce those folds exactly, so tree evaluation and
// the kernels produce identical doubles (the parity tests compare with ==).
#ifndef RANKCUBE_FUNC_SCORE_EXPR_H_
#define RANKCUBE_FUNC_SCORE_EXPR_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace rankcube {

/// Positive infinity; the score of tuples excluded by a constrained function
/// (the value of a Gate node outside its band).
inline constexpr double kInfScore = std::numeric_limits<double>::infinity();

class ScoreExpr;
using ScoreExprPtr = std::shared_ptr<const ScoreExpr>;

/// Node kinds of the score algebra. Add and Mul are n-ary with defined
/// left-to-right folding; everything else is unary/binary.
enum class ExprKind {
  kConst,   ///< literal
  kVar,     ///< ranking dimension N_d
  kAdd,     ///< left fold of + over children, starting at 0.0
  kMul,     ///< left fold of * over children, starting at children[0]
  kSub,     ///< children[0] - children[1]
  kAbs,     ///< |child|
  kSquare,  ///< child * child (child evaluated once)
  kGate,    ///< +inf when N_dim outside [band_lo, band_hi], else child
};

/// Immutable expression node. Build with the static factories; nodes are
/// shared freely (shared_ptr) and never mutated after construction.
class ScoreExpr {
 public:
  static ScoreExprPtr Const(double value);
  static ScoreExprPtr Var(int dim);
  static ScoreExprPtr Add(std::vector<ScoreExprPtr> children);
  static ScoreExprPtr Mul(std::vector<ScoreExprPtr> children);
  static ScoreExprPtr Sub(ScoreExprPtr a, ScoreExprPtr b);
  static ScoreExprPtr Abs(ScoreExprPtr child);
  static ScoreExprPtr Square(ScoreExprPtr child);
  /// The constrained-function gate of §5.4.2: +inf outside the band.
  static ScoreExprPtr Gate(ScoreExprPtr child, int dim, double lo, double hi);

  ExprKind kind() const { return kind_; }
  double value() const { return value_; }
  int dim() const { return dim_; }
  /// kGate: the band N_dim must lie in; 0 for every other kind.
  double band_lo() const;
  double band_hi() const;
  const std::vector<ScoreExprPtr>& children() const { return children_; }

  /// Exact score of a point (array of R values); deterministic fold order.
  double Eval(const double* point) const;

  /// Interval arithmetic over `box`: the true range of the node over the
  /// box is contained in the returned interval, so .lo is always a valid
  /// LowerBound. Adjacent structurally-shared (pointer-equal) Mul children
  /// are ranged as squares, keeping w*(x-t)*(x-t) bounds non-negative.
  Interval Range(const Box& box) const;

  /// Marks every ranking dimension the subtree reads in `involved`
  /// (caller-sized to R).
  void CollectDims(std::vector<bool>* involved) const;

  /// Monotonicity of the node in dimension `dim` over `domain`:
  /// +1 non-decreasing, -1 non-increasing, 0 independent of the dimension.
  /// nullopt = unknown (the conservative answer; never wrong, only weaker
  /// routing). Gated dimensions are always unknown (the gate is a jump).
  std::optional<int> Monotonicity(int dim, const Box& domain) const;

  std::string ToString() const;

  /// Constructible only by the factories (the passkey idiom, so that
  /// std::make_shared can reach the constructor).
  class Key {
    friend class ScoreExpr;
    explicit Key() = default;
  };
  ScoreExpr(Key, ExprKind kind) : kind_(kind) {}

 private:
  struct Gated;  ///< a kGate node: this plus its band (score_expr.cc)

  // A function holds its tree for its whole life, and callers hold many
  // functions at once, so a node is one small allocation: the band lives
  // only in Gated nodes.
  ExprKind kind_;
  int dim_ = -1;        ///< kVar / kGate
  double value_ = 0.0;  ///< kConst
  std::vector<ScoreExprPtr> children_;
};

/// Sound upper bound on max over `box` of |a(x) - b(x)|. Walks the two
/// trees in parallel, exploiting shared structure: plain interval
/// subtraction (Range(a) - Range(b)) loses the correlation through the
/// shared variables and returns bounds as wide as the score range itself,
/// useless for certifying near-duplicate reuse. Structurally parallel nodes
/// telescope instead — two linear functions bound to sum(|dw_d|) over the
/// unit box. Returns kInfScore when no finite bound is provable (gates with
/// different bands, mismatched shapes over unbounded boxes); never returns
/// an underestimate.
double MaxAbsDiff(const ScoreExpr& a, const ScoreExpr& b, const Box& box);

/// Function shapes the kernel layer specializes and ExprFunction bounds in
/// closed form. kGeneric means "no fused kernel, interval bounds".
enum class FuncShape {
  kGeneric,
  kLinear,
  kQuadratic,
  kL1,
  kSquaredLinear,
  kGeneralAB,
  kConstrainedSum,
};

/// A classified tree, flattened to the per-term arrays a kernel consumes.
/// `dims/weights/targets` run in evaluation (fold) order — the kernel
/// accumulates terms in exactly this order to stay bit-identical to Eval.
/// For kGeneralAB / kConstrainedSum, dims = {a, b} and the band applies to
/// dims[1].
struct ExprPlan {
  FuncShape shape = FuncShape::kGeneric;
  std::vector<int> dims;
  std::vector<double> weights;
  std::vector<double> targets;
  double band_lo = 0.0;
  double band_hi = 0.0;
};

/// Structural pattern match against the specializable shapes. Strict on
/// operation order (only trees whose fold order matches the kernel's are
/// accepted), so a specialized kernel is bit-identical to Eval by
/// construction. Unrecognized trees come back kGeneric.
ExprPlan ClassifyExpr(const ScoreExpr& expr);

}  // namespace rankcube

#endif  // RANKCUBE_FUNC_SCORE_EXPR_H_
