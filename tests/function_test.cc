#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "func/ranking_function.h"

namespace rankcube {
namespace {

TEST(LinearFunctionTest, EvaluateAndBounds) {
  LinearFunction f({1.0, 2.0});
  double p[] = {0.5, 0.25};
  EXPECT_DOUBLE_EQ(f.Evaluate(p), 1.0);
  Box box{{0.2, 0.4}, {0.1, 0.3}};
  EXPECT_DOUBLE_EQ(f.LowerBound(box), 0.2 + 2 * 0.1);
  EXPECT_TRUE(f.convex());
  auto dirs = f.MonotoneDirections();
  ASSERT_TRUE(dirs.has_value());
  EXPECT_EQ(*dirs, (std::vector<int>{1, 1}));
}

TEST(LinearFunctionTest, NegativeWeights) {
  LinearFunction f({1.0, -1.0});
  Box box{{0.0, 1.0}, {0.0, 1.0}};
  EXPECT_DOUBLE_EQ(f.LowerBound(box), -1.0);  // x=0, y=1
  auto mins = f.Minimizer(box);
  EXPECT_DOUBLE_EQ(mins[0], 0.0);
  EXPECT_DOUBLE_EQ(mins[1], 1.0);
  EXPECT_EQ((*f.MonotoneDirections())[1], -1);
}

TEST(LinearFunctionTest, UninvolvedDims) {
  LinearFunction f({0.0, 3.0, 0.0});
  EXPECT_EQ(f.involved_dims(), (std::vector<int>{1}));
  double p[] = {9.0, 0.5, 7.0};
  EXPECT_DOUBLE_EQ(f.Evaluate(p), 1.5);
}

TEST(QuadraticDistanceTest, EvaluateAndBounds) {
  QuadraticDistance f({1.0, 1.0}, {0.5, 0.5});
  double p[] = {0.7, 0.5};
  EXPECT_NEAR(f.Evaluate(p), 0.04, 1e-12);
  // Box containing the target: bound 0.
  EXPECT_DOUBLE_EQ(f.LowerBound(Box::Unit(2)), 0.0);
  // Box away from the target.
  Box far{{0.8, 0.9}, {0.5, 0.6}};
  EXPECT_NEAR(f.LowerBound(far), 0.09, 1e-12);
  auto center = f.SemiMonotoneCenter();
  ASSERT_TRUE(center.has_value());
  EXPECT_EQ(*center, (std::vector<double>{0.5, 0.5}));
}

TEST(L1DistanceTest, Evaluate) {
  L1Distance f({2.0, 1.0}, {0.5, 0.0});
  double p[] = {0.75, 0.5};
  EXPECT_DOUBLE_EQ(f.Evaluate(p), 2 * 0.25 + 0.5);
  EXPECT_TRUE(f.convex());
}

TEST(SquaredLinearTest, ZeroInsideBox) {
  // fg = (2X - Y - Z)^2 (§4.4.2's general query).
  SquaredLinear f({2.0, -1.0, -1.0});
  EXPECT_DOUBLE_EQ(f.LowerBound(Box::Unit(3)), 0.0);
  double p[] = {0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(f.Evaluate(p), 0.0);
  // Minimizer achieves the lower bound.
  auto m = f.Minimizer(Box::Unit(3));
  EXPECT_NEAR(f.Evaluate(m.data()), 0.0, 1e-12);
}

TEST(SquaredLinearTest, BoxAwayFromZero) {
  SquaredLinear f({1.0, -1.0});
  Box box{{0.8, 0.9}, {0.0, 0.1}};  // inner in [0.7, 0.9]
  EXPECT_NEAR(f.LowerBound(box), 0.49, 1e-12);
  auto m = f.Minimizer(box);
  EXPECT_NEAR(f.Evaluate(m.data()), 0.49, 1e-12);
}

TEST(GeneralABTest, EvaluateAndBounds) {
  GeneralAB f(2, 0, 1);  // (A - B^2)^2
  double p[] = {0.25, 0.5};
  EXPECT_DOUBLE_EQ(f.Evaluate(p), 0.0);
  EXPECT_DOUBLE_EQ(f.LowerBound(Box::Unit(2)), 0.0);
  Box box{{0.9, 1.0}, {0.0, 0.1}};  // a ~ 1, b^2 ~ 0
  EXPECT_NEAR(f.LowerBound(box), (0.9 - 0.01) * (0.9 - 0.01), 1e-12);
}

TEST(ConstrainedSumTest, InfOutsideBand) {
  ConstrainedSum f(2, 0, 1, 0.4, 0.6);
  double inside[] = {0.1, 0.5};
  double outside[] = {0.1, 0.9};
  EXPECT_DOUBLE_EQ(f.Evaluate(inside), 0.6);
  EXPECT_EQ(f.Evaluate(outside), kInfScore);
  Box out_box{{0.0, 1.0}, {0.7, 1.0}};
  EXPECT_EQ(f.LowerBound(out_box), kInfScore);
  Box in_box{{0.2, 0.3}, {0.3, 0.5}};
  EXPECT_DOUBLE_EQ(f.LowerBound(in_box), 0.2 + 0.4);
}

// ------------------------------------------------------------------------
// Property sweep: for every function kind, LowerBound(box) must bound
// Evaluate(p) for all p in box, and Minimizer(box) must land in the box.
// ------------------------------------------------------------------------

RankingFunctionPtr MakeFunction(const std::string& kind) {
  if (kind == "linear") return std::make_shared<LinearFunction>(
      std::vector<double>{1.0, 2.5, 0.5});
  if (kind == "linear_neg") return std::make_shared<LinearFunction>(
      std::vector<double>{1.0, -2.0, 0.0});
  if (kind == "l2") return std::make_shared<QuadraticDistance>(
      std::vector<double>{1.0, 1.0, 2.0}, std::vector<double>{0.3, 0.7, 0.5});
  // A negative distance weight rewards distance: its bound sits at the
  // endpoint farthest from the target.
  if (kind == "l2_neg") return std::make_shared<QuadraticDistance>(
      std::vector<double>{1.0, -1.0, 0.0}, std::vector<double>{0.3, 0.6, 0.0});
  if (kind == "l1_neg") return std::make_shared<L1Distance>(
      std::vector<double>{-0.5, 1.0, 1.0}, std::vector<double>{0.4, 0.2, 1.5});
  if (kind == "l1") return std::make_shared<L1Distance>(
      std::vector<double>{1.0, 1.0, 0.0}, std::vector<double>{0.9, 0.1, 0.0});
  if (kind == "sqlinear") return std::make_shared<SquaredLinear>(
      std::vector<double>{2.0, -1.0, -1.0});
  if (kind == "generalab") return std::make_shared<GeneralAB>(3, 0, 1);
  return std::make_shared<ConstrainedSum>(3, 0, 1, 0.3, 0.7);
}

class FunctionPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FunctionPropertyTest, LowerBoundHolsdOverRandomBoxes) {
  auto f = MakeFunction(GetParam());
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Box box(3);
    for (int d = 0; d < 3; ++d) {
      double a = rng.Uniform01(), b = rng.Uniform01();
      box[d] = {std::min(a, b), std::max(a, b)};
    }
    double lb = f->LowerBound(box);
    for (int i = 0; i < 20; ++i) {
      std::vector<double> p(3);
      for (int d = 0; d < 3; ++d) {
        p[d] = box[d].lo + box[d].width() * rng.Uniform01();
      }
      double v = f->Evaluate(p.data());
      if (lb == kInfScore) {
        // An infinite bound asserts no point in the box is feasible.
        EXPECT_EQ(v, kInfScore) << GetParam() << " box=" << box.ToString();
      } else {
        EXPECT_GE(v - lb, -1e-9) << GetParam() << " box=" << box.ToString();
      }
    }
  }
}

TEST_P(FunctionPropertyTest, MinimizerInsideBoxAndNearBound) {
  auto f = MakeFunction(GetParam());
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    Box box(3);
    for (int d = 0; d < 3; ++d) {
      double a = rng.Uniform01(), b = rng.Uniform01();
      box[d] = {std::min(a, b), std::max(a, b)};
    }
    auto m = f->Minimizer(box);
    ASSERT_EQ(m.size(), 3u);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(m[d], box[d].lo - 1e-12);
      EXPECT_LE(m[d], box[d].hi + 1e-12);
    }
    // The minimizer's score upper-bounds the lower bound.
    double lb = f->LowerBound(box);
    if (lb < kInfScore) {
      EXPECT_GE(f->Evaluate(m.data()) - lb, -1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FunctionPropertyTest,
                         ::testing::Values("linear", "linear_neg", "l2", "l1",
                                           "l2_neg", "l1_neg", "sqlinear",
                                           "generalab", "constrained"));

// ------------------------------------------------------------------------
// Closed forms: each builtin class is a builder of a ScoreExpr tree, and
// ExprFunction bounds the classified tree by the shape's closed form. The
// references below write the paper's closed forms out per class; the
// tree-derived LowerBound and Minimizer must match them bit for bit, since
// the grid search starts at BidOfPoint(Minimizer(unit box)) and prunes
// with LowerBound — a different double can mean different pages.
// ------------------------------------------------------------------------

constexpr int kDims = 4;

/// Weights with zeros (uninvolved dimensions) and, when `signed_ok`,
/// negative entries.
std::vector<double> RandomWeights(Rng* rng, bool signed_ok) {
  std::vector<double> w(kDims);
  for (double& v : w) {
    v = rng->UniformInt(4) == 0 ? 0.0
                                : rng->Uniform(signed_ok ? -2.0 : 0.1, 2.0);
  }
  if (std::all_of(w.begin(), w.end(), [](double v) { return v == 0.0; })) {
    w[rng->UniformInt(kDims)] = 1.0;
  }
  return w;
}

/// Targets in [-0.5, 1.5): often outside the box, sometimes outside [0,1].
std::vector<double> RandomTargets(Rng* rng) {
  std::vector<double> t(kDims);
  for (double& v : t) v = rng->Uniform(-0.5, 1.5);
  return t;
}

/// Sub-boxes of the unit box, a few of them degenerate (lo == hi).
Box RandomBox(Rng* rng) {
  Box box(kDims);
  for (int d = 0; d < kDims; ++d) {
    double a = rng->Uniform01(), b = rng->Uniform01();
    if (rng->UniformInt(10) == 0) b = a;
    box[d] = {std::min(a, b), std::max(a, b)};
  }
  return box;
}

double LinearLB(const std::vector<double>& w, const Box& box) {
  double s = 0.0;
  for (int d = 0; d < kDims; ++d) {
    if (w[d] != 0.0) s += w[d] * (w[d] >= 0 ? box[d].lo : box[d].hi);
  }
  return s;
}

std::vector<double> LinearArgMin(const std::vector<double>& w,
                                 const Box& box) {
  std::vector<double> p(kDims);
  for (int d = 0; d < kDims; ++d) p[d] = w[d] >= 0 ? box[d].lo : box[d].hi;
  return p;
}

/// sum w (clamp(t) - t)^2, or with `l1` sum w |clamp(t) - t|.
double DistanceLB(const std::vector<double>& w, const std::vector<double>& t,
                  const Box& box, bool l1) {
  double s = 0.0;
  for (int d = 0; d < kDims; ++d) {
    if (w[d] == 0.0) continue;
    const double diff = box[d].Clamp(t[d]) - t[d];
    s += l1 ? w[d] * std::abs(diff) : w[d] * diff * diff;
  }
  return s;
}

std::vector<double> ClampedTarget(const std::vector<double>& t,
                                  const Box& box) {
  std::vector<double> p(kDims);
  for (int d = 0; d < kDims; ++d) p[d] = box[d].Clamp(t[d]);
  return p;
}

/// (sum w x)^2: 0 when the inner form's range straddles 0, else the
/// smaller squared end.
double SquaredLinearLB(const std::vector<double>& w, const Box& box) {
  double lo = 0.0, hi = 0.0;
  for (int d = 0; d < kDims; ++d) {
    if (w[d] == 0.0) continue;
    lo += w[d] * (w[d] >= 0 ? box[d].lo : box[d].hi);
    hi += w[d] * (w[d] >= 0 ? box[d].hi : box[d].lo);
  }
  if (lo <= 0.0 && 0.0 <= hi) return 0.0;
  return std::min(lo * lo, hi * hi);
}

/// From the corner minimizing the inner form, walk coordinates toward the
/// other end until the inner form reaches 0.
std::vector<double> SquaredLinearArgMin(const std::vector<double>& w,
                                        const Box& box) {
  std::vector<double> p = LinearArgMin(w, box);
  double inner = 0.0;
  for (int d = 0; d < kDims; ++d) inner += w[d] * p[d];
  if (inner >= 0.0) return p;
  for (int d = 0; d < kDims; ++d) {
    if (w[d] == 0.0) continue;
    const double other = w[d] >= 0 ? box[d].hi : box[d].lo;
    const double delta = w[d] * (other - p[d]);
    if (inner + delta >= 0.0) {
      p[d] += -inner / w[d];
      return p;
    }
    inner += delta;
    p[d] = other;
  }
  return p;
}

/// (x_a - x_b^2)^2: range of b^2, then of a - b^2, then its least square.
double GeneralABLB(int a, int b, const Box& box) {
  const Interval& ib = box[b];
  const double x = ib.lo * ib.lo, y = ib.hi * ib.hi;
  const double b2_lo =
      (ib.lo <= 0.0 && 0.0 <= ib.hi) ? 0.0 : std::min(x, y);
  const double b2_hi = std::max(x, y);
  const double lo = box[a].lo - b2_hi, hi = box[a].hi - b2_lo;
  if (lo <= 0.0 && 0.0 <= hi) return 0.0;
  return std::min(lo * lo, hi * hi);
}

/// The best of five b candidates, each with a clamped to b^2.
std::vector<double> GeneralABArgMin(int a, int b, const Box& box) {
  std::vector<double> p(kDims);
  for (int d = 0; d < kDims; ++d) p[d] = box[d].lo;
  const Interval& ia = box[a];
  const Interval& ib = box[b];
  double best = kInfScore;
  for (double bv : {ib.lo, ib.hi, ib.Clamp(0.0),
                    ib.Clamp(std::sqrt(std::max(0.0, ia.lo))),
                    ib.Clamp(std::sqrt(std::max(0.0, ia.hi)))}) {
    const double av = ia.Clamp(bv * bv);
    const double s = (av - bv * bv) * (av - bv * bv);
    if (s < best) {
      best = s;
      p[a] = av;
      p[b] = bv;
    }
  }
  return p;
}

/// (x_a + x_b) gated on x_b in [lo, hi]: +inf when the box misses the band.
double ConstrainedSumLB(int a, int b, double lo, double hi, const Box& box) {
  if (box[b].hi < lo || box[b].lo > hi) return kInfScore;
  return box[a].lo + std::max(box[b].lo, lo);
}

std::vector<double> ConstrainedSumArgMin(int b, double lo, const Box& box) {
  std::vector<double> p(kDims);
  for (int d = 0; d < kDims; ++d) p[d] = box[d].lo;
  p[b] = box[b].Clamp(std::max(box[b].lo, lo));
  return p;
}

TEST(ClosedFormTest, BuiltinBoundsAndMinimizersMatchThePaperForms) {
  Rng rng(20070415);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<double> w_signed = RandomWeights(&rng, true);
    const std::vector<double> w_pos = RandomWeights(&rng, false);
    const std::vector<double> t = RandomTargets(&rng);
    const int a = static_cast<int>(rng.UniformInt(kDims));
    const int b = (a + 1 + static_cast<int>(rng.UniformInt(kDims - 1))) % kDims;
    const double band_lo = rng.Uniform(0.0, 0.8);
    const double band_hi = band_lo + rng.Uniform(0.0, 0.2);

    LinearFunction linear(w_signed);
    QuadraticDistance quad(w_pos, t);
    L1Distance l1(w_pos, t);
    SquaredLinear sq(w_signed);
    GeneralAB gab(kDims, a, b);
    ConstrainedSum cs(kDims, a, b, band_lo, band_hi);

    for (int bi = 0; bi < 10; ++bi) {
      const Box box = bi == 0 ? Box::Unit(kDims) : RandomBox(&rng);
      SCOPED_TRACE("trial " + std::to_string(trial) + " box " +
                   box.ToString());
      EXPECT_EQ(linear.LowerBound(box), LinearLB(w_signed, box));
      EXPECT_EQ(linear.Minimizer(box), LinearArgMin(w_signed, box));
      EXPECT_EQ(quad.LowerBound(box), DistanceLB(w_pos, t, box, false));
      EXPECT_EQ(quad.Minimizer(box), ClampedTarget(t, box));
      EXPECT_EQ(l1.LowerBound(box), DistanceLB(w_pos, t, box, true));
      EXPECT_EQ(l1.Minimizer(box), ClampedTarget(t, box));
      EXPECT_EQ(sq.LowerBound(box), SquaredLinearLB(w_signed, box));
      EXPECT_EQ(sq.Minimizer(box), SquaredLinearArgMin(w_signed, box));
      EXPECT_EQ(gab.LowerBound(box), GeneralABLB(a, b, box));
      EXPECT_EQ(gab.Minimizer(box), GeneralABArgMin(a, b, box));
      EXPECT_EQ(cs.LowerBound(box),
                ConstrainedSumLB(a, b, band_lo, band_hi, box));
      EXPECT_EQ(cs.Minimizer(box), ConstrainedSumArgMin(b, band_lo, box));
    }
  }
}

TEST(ClosedFormTest, BoxMissingTheGateBandBoundsToInfinity) {
  ConstrainedSum f(kDims, 2, 0, 0.4, 0.5);
  Box below = Box::Unit(kDims);
  below[0] = {0.1, 0.39};
  Box above = Box::Unit(kDims);
  above[0] = {0.51, 0.9};
  EXPECT_EQ(f.LowerBound(below), kInfScore);
  EXPECT_EQ(f.LowerBound(above), kInfScore);
  // The minimizer stays in the box; it scores +inf like the bound.
  for (const Box& box : {below, above}) {
    std::vector<double> m = f.Minimizer(box);
    EXPECT_TRUE(box.Contains(m));
    EXPECT_EQ(f.Evaluate(m.data()), kInfScore);
  }
}

TEST(ClosedFormTest, DerivedMetadataOfTheBuilders) {
  // Same-sign squared-linear is monotone (x only grows the inner form
  // away from 0 on the unit domain); mixed signs are not.
  auto same = SquaredLinear({1.0, 0.5, 0.0}).MonotoneDirections();
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(*same, (std::vector<int>{1, 1}));
  EXPECT_FALSE(SquaredLinear({2.0, -1.0, -1.0}).MonotoneDirections());
  // A distance with a negative weight is neither convex nor semi-monotone.
  QuadraticDistance neg({1.0, -1.0}, {0.5, 0.5});
  EXPECT_FALSE(neg.convex());
  EXPECT_FALSE(neg.SemiMonotoneCenter().has_value());
  EXPECT_FALSE(L1Distance({-1.0, 1.0}, {0.5, 0.5}).convex());
  // Two-dimension shapes list their dimensions ascending.
  EXPECT_EQ(GeneralAB(3, 2, 0).involved_dims(), (std::vector<int>{0, 2}));
  EXPECT_EQ(ConstrainedSum(3, 2, 1, 0.2, 0.4).involved_dims(),
            (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace rankcube
