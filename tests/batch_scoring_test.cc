// Block-scoring parity: BlockEvaluator (the fused kernels and the generic
// gather-and-Evaluate loop behind them) must be bit-identical to per-tuple
// Evaluate for every function, every builtin shape must reach a kernel,
// OfferBatch must produce exactly the same top-k as repeated Offer, and
// TopKHeap must never admit a +inf score. These are the invariants that let
// every Execute path score blocks without changing a single reported score.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/topk_query.h"
#include "func/kernels/kernels.h"
#include "func/ranking_function.h"
#include "gen/synthetic.h"

namespace rankcube {
namespace {

constexpr int kRankDims = 4;

Table MakeTable(uint64_t seed) {
  SyntheticSpec spec;
  spec.num_rows = 3000;
  spec.num_sel_dims = 2;
  spec.cardinality = 4;
  spec.num_rank_dims = kRankDims;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

std::vector<double> RandomWeights(Rng* rng, bool allow_negative) {
  std::vector<double> w(kRankDims);
  for (double& v : w) {
    v = rng->Uniform(allow_negative ? -2.0 : 0.1, 2.0);
    if (std::abs(v) < 0.05) v = 0.0;  // exercise uninvolved dims
  }
  // At least one involved dimension.
  if (std::all_of(w.begin(), w.end(), [](double v) { return v == 0.0; })) {
    w[0] = 1.0;
  }
  return w;
}

std::vector<double> RandomTargets(Rng* rng) {
  std::vector<double> t(kRankDims);
  for (double& v : t) v = rng->Uniform01();
  return t;
}

/// Every tid once, in a scrambled order, plus some duplicates — batch
/// callers do not guarantee sorted or unique tids.
std::vector<Tid> ScrambledTids(const Table& table, Rng* rng) {
  std::vector<Tid> tids(table.num_rows());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) tids[t] = t;
  for (size_t i = tids.size() - 1; i > 0; --i) {
    std::swap(tids[i], tids[rng->UniformInt(i + 1)]);
  }
  for (int i = 0; i < 32; ++i) {
    tids.push_back(static_cast<Tid>(rng->UniformInt(table.num_rows())));
  }
  return tids;
}

TEST(OfferBatchParityTest, MatchesRepeatedOffer) {
  Rng rng(99);
  for (int k : {1, 5, 64}) {
    TopKHeap batched(k);
    TopKHeap scalar(k);
    // Several blocks, including scores worse than the running bound and
    // +inf scores, delivered identically to both heaps.
    for (int block = 0; block < 20; ++block) {
      std::vector<Tid> tids;
      std::vector<double> scores;
      for (int i = 0; i < 50; ++i) {
        tids.push_back(static_cast<Tid>(rng.UniformInt(100000)));
        double s = rng.Uniform(-1.0, 1.0);
        if (rng.UniformInt(20) == 0) s = kInfScore;
        scores.push_back(s);
      }
      batched.OfferBatch(tids.data(), scores.data(), tids.size());
      for (size_t i = 0; i < tids.size(); ++i) {
        scalar.Offer(tids[i], scores[i]);
      }
      EXPECT_EQ(batched.KthScore(), scalar.KthScore());
    }
    EXPECT_EQ(batched.Sorted(), scalar.Sorted());
  }
}

/// The six built-in function classes with randomized parameters: the full
/// set of kernel-specializable shapes.
std::vector<std::shared_ptr<const ExprFunction>> AllShapeFunctions(
    Rng* rng) {
  std::vector<std::shared_ptr<const ExprFunction>> funcs;
  funcs.push_back(std::make_shared<LinearFunction>(RandomWeights(rng, true)));
  funcs.push_back(std::make_shared<QuadraticDistance>(
      RandomWeights(rng, false), RandomTargets(rng)));
  funcs.push_back(std::make_shared<L1Distance>(RandomWeights(rng, false),
                                               RandomTargets(rng)));
  funcs.push_back(std::make_shared<SquaredLinear>(RandomWeights(rng, true)));
  funcs.push_back(std::make_shared<GeneralAB>(kRankDims, 0, 1));
  funcs.push_back(
      std::make_shared<ConstrainedSum>(kRankDims, 0, 1, 0.4, 0.6));
  return funcs;
}

/// Scalar oracle: per-tuple Evaluate over the table's rank rows.
std::vector<double> ScalarOracle(const RankingFunction& f, const Table& table,
                                 const std::vector<Tid>& tids) {
  std::vector<double> out(tids.size());
  std::vector<double> point(table.num_rank_dims());
  for (size_t i = 0; i < tids.size(); ++i) {
    table.CopyRankRow(tids[i], point.data());
    out[i] = f.Evaluate(point.data());
  }
  return out;
}

TEST(FusedKernelParityTest, IndexedAndDenseMatchScalarOracle) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Table table = MakeTable(seed);
    Rng rng(2000 + seed);
    std::vector<Tid> scrambled = ScrambledTids(table, &rng);
    std::vector<Tid> consecutive(table.num_rows());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      consecutive[t] = t;
    }

    for (const auto& f : AllShapeFunctions(&rng)) {
      const ExprPlan& plan = f->plan();
      ASSERT_NE(plan.shape, FuncShape::kGeneric)
          << f->ToString() << " tree did not classify";
      kernels::BoundPlan bound;
      ASSERT_TRUE(kernels::Bind(plan, table, &bound)) << f->ToString();
      kernels::Kernel kernel = kernels::Resolve(bound);
      ASSERT_NE(kernel.indexed, nullptr) << f->ToString();
      ASSERT_NE(kernel.dense, nullptr) << f->ToString();

      // Indexed loop on an arbitrary (scrambled, duplicated) tid stream.
      std::vector<double> expect = ScalarOracle(*f, table, scrambled);
      std::vector<double> got(scrambled.size());
      kernel.indexed(bound, scrambled.data(), scrambled.size(), got.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(expect[i], got[i])
            << f->ToString() << " indexed kernel diverges at tid "
            << scrambled[i];
      }

      // Dense loop on the consecutive run, plus RunKernel's dispatch to it.
      expect = ScalarOracle(*f, table, consecutive);
      got.assign(consecutive.size(), -1.0);
      kernel.dense(bound, 0, consecutive.size(), got.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(expect[i], got[i])
            << f->ToString() << " dense kernel diverges at tid " << i;
      }
      std::vector<double> via_dispatch(consecutive.size(), -1.0);
      kernels::RunKernel(kernel, bound, consecutive.data(),
                         consecutive.size(), via_dispatch.data());
      EXPECT_EQ(got, via_dispatch) << f->ToString();
    }
  }
}

TEST(FusedKernelParityTest, ConsecutiveRunDetection) {
  std::vector<Tid> run = {5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_TRUE(kernels::IsConsecutiveRun(run.data(), run.size()));
  Tid one = 42;
  EXPECT_TRUE(kernels::IsConsecutiveRun(&one, 1));
  std::vector<Tid> broken = run;
  broken[5] = 99;
  EXPECT_FALSE(kernels::IsConsecutiveRun(broken.data(), broken.size()));
  std::vector<Tid> reversed(run.rbegin(), run.rend());
  EXPECT_FALSE(kernels::IsConsecutiveRun(reversed.data(), reversed.size()));
  std::vector<Tid> dup = {3, 3, 4, 5};
  EXPECT_FALSE(kernels::IsConsecutiveRun(dup.data(), dup.size()));
}

TEST(FusedScorerTest, PredicatesMatchScalarFilterLoop) {
  Table table = MakeTable(5);
  Rng rng(77);
  std::vector<Predicate> preds = {{0, 1}, {1, 2}};
  for (const auto& f : AllShapeFunctions(&rng)) {
    TopKHeap fused_heap(10);
    ExecStats fused_stats;
    kernels::FusedScorer scorer(table, *f, preds, &fused_heap, &fused_stats);
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      scorer.Add(t);
    }
    scorer.Flush();

    TopKHeap scalar_heap(10);
    uint64_t survivors = 0;
    std::vector<double> point(kRankDims);
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      bool ok = true;
      for (const auto& p : preds) {
        if (table.sel(t, p.dim) != p.value) ok = false;
      }
      if (!ok) continue;
      ++survivors;
      table.CopyRankRow(t, point.data());
      scalar_heap.Offer(t, f->Evaluate(point.data()));
    }

    EXPECT_EQ(fused_heap.Sorted(), scalar_heap.Sorted()) << f->ToString();
    EXPECT_EQ(fused_stats.tuples_evaluated, survivors) << f->ToString();
  }
}

TEST(FusedScorerTest, EmptyAndAllFilteredBlocks) {
  Table table = MakeTable(9);
  LinearFunction f({1.0, 0.25, 0.0, 0.5});
  // Contradictory predicates: no tuple can satisfy A0=0 and A0=1.
  std::vector<Predicate> preds = {{0, 0}, {0, 1}};
  TopKHeap topk(5);
  ExecStats stats;
  kernels::FusedScorer scorer(table, f, preds, &topk, &stats);
  scorer.ScoreBlock(nullptr, 0);  // empty block: no-op
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) scorer.Add(t);
  scorer.Flush();
  EXPECT_TRUE(topk.Sorted().empty());
  EXPECT_EQ(stats.tuples_evaluated, 0u);
}

TEST(FusedScorerTest, BlockExactlyAtThresholdLeavesHeapUntouched) {
  Table table = MakeTable(13);
  LinearFunction f({0.5, 0.5, 0.25, 0.25});
  TopKHeap topk(10);
  ExecStats stats;
  kernels::FusedScorer scorer(table, f, &topk, &stats);
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) scorer.Add(t);
  scorer.Flush();
  auto before = topk.Sorted();
  const double sk = topk.KthScore();
  ASSERT_EQ(before.back().score, sk);
  // A block scoring exactly S_k throughout: the threshold test is strict
  // (score < S_k), so ties must not displace or duplicate the incumbent.
  std::vector<Tid> at_threshold(64, before.back().tid);
  scorer.ScoreBlock(at_threshold.data(), at_threshold.size());
  EXPECT_EQ(topk.Sorted(), before);
  EXPECT_EQ(topk.KthScore(), sk);
}

TEST(TopKHeapTest, RefusesInfiniteScores) {
  TopKHeap heap(3);
  heap.Offer(1, kInfScore);
  EXPECT_EQ(heap.size(), 0u);
  const Tid tids[] = {2, 3, 4, 5};
  const double scores[] = {kInfScore, 0.5, kInfScore, 0.25};
  heap.OfferBatch(tids, scores, 4);
  // Two finite scores for k = 3: the heap is short, and S_k stays +inf so
  // only a +inf bound stops a search.
  EXPECT_EQ(heap.Sorted(), (std::vector<ScoredTuple>{{5, 0.25}, {3, 0.5}}));
  EXPECT_FALSE(heap.Full());
  EXPECT_EQ(heap.KthScore(), kInfScore);
}

TEST(TopKHeapTest, GatedScanKeepsOnlyInBandTuples) {
  Table table = MakeTable(17);
  ConstrainedSum f(kRankDims, 0, 1, 0.4, 0.6);
  const Tid n = static_cast<Tid>(table.num_rows());
  TopKHeap heap(static_cast<int>(n));
  ExecStats stats;
  kernels::FusedScorer scorer(table, f, &heap, &stats);
  for (Tid t = 0; t < n; ++t) scorer.Add(t);
  scorer.Flush();
  // With k = num_rows the heap holds exactly the in-band tuples.
  std::vector<Tid> all(n);
  for (Tid t = 0; t < n; ++t) all[t] = t;
  size_t finite = 0;
  for (double s : ScalarOracle(f, table, all)) finite += (s < kInfScore);
  ASSERT_GT(finite, 0u);
  ASSERT_LT(finite, static_cast<size_t>(n));
  auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), finite);
  for (const auto& st : sorted) EXPECT_LT(st.score, kInfScore);
  EXPECT_EQ(stats.tuples_evaluated, static_cast<uint64_t>(n));
}

TEST(BlockEvaluatorTest, EmptyAndSingletonBlocks) {
  Table table = MakeTable(11);
  LinearFunction f({1.0, 0.5, 0.0, 0.0});
  std::vector<double> point(kRankDims);
  const Tid tid = 42;
  table.CopyRankRow(tid, point.data());
  for (bool kernels_on : {true, false}) {
    if (!kernels_on) {
      ASSERT_EQ(setenv("RANKCUBE_FUSED_KERNELS", "0", 1), 0);
    }
    kernels::BlockEvaluator eval(table, f);
    ASSERT_EQ(unsetenv("RANKCUBE_FUSED_KERNELS"), 0);
    EXPECT_EQ(eval.fused(), kernels_on);
    eval.Score(nullptr, 0, nullptr);  // must be a no-op
    double out = -1.0;
    eval.Score(&tid, 1, &out);
    EXPECT_EQ(out, f.Evaluate(point.data()));
  }
}

TEST(BlockEvaluatorTest, EveryBuiltinShapeReachesAKernelAtEveryWidth) {
  // With kernels on, no builtin function may fall to the generic tree walk:
  // every shape at every involved-dimension count up to kMaxDims binds a
  // specialized loop.
  SyntheticSpec spec;
  spec.num_rows = 64;
  spec.num_sel_dims = 1;
  spec.cardinality = 2;
  spec.num_rank_dims = kernels::kMaxDims;
  spec.seed = 3;
  Table table = GenerateSynthetic(spec);
  const int r = kernels::kMaxDims;
  for (int d = 1; d <= r; ++d) {
    std::vector<double> w(r, 0.0), t(r, 0.5);
    for (int j = 0; j < d; ++j) w[r - 1 - j] = 0.25 + j;
    SCOPED_TRACE("involved dims: " + std::to_string(d));
    EXPECT_TRUE(kernels::BlockEvaluator(table, LinearFunction(w)).fused());
    EXPECT_TRUE(
        kernels::BlockEvaluator(table, QuadraticDistance(w, t)).fused());
    EXPECT_TRUE(kernels::BlockEvaluator(table, L1Distance(w, t)).fused());
    EXPECT_TRUE(kernels::BlockEvaluator(table, SquaredLinear(w)).fused());
  }
  for (int a = 0; a < r; ++a) {
    const int b = (a + 3) % r;
    EXPECT_TRUE(kernels::BlockEvaluator(table, GeneralAB(r, a, b)).fused());
    EXPECT_TRUE(
        kernels::BlockEvaluator(table, ConstrainedSum(r, a, b, 0.2, 0.7))
            .fused());
  }
}

TEST(ExprRoundTripTest, LegacyFunctionsRoundTripThroughExprFunction) {
  Table table = MakeTable(21);
  Rng rng(555);
  std::vector<Tid> tids = ScrambledTids(table, &rng);
  const FuncShape expected_shapes[] = {
      FuncShape::kLinear,        FuncShape::kQuadratic,
      FuncShape::kL1,            FuncShape::kSquaredLinear,
      FuncShape::kGeneralAB,     FuncShape::kConstrainedSum,
  };
  auto funcs = AllShapeFunctions(&rng);
  ASSERT_EQ(funcs.size(), std::size(expected_shapes));
  for (size_t fi = 0; fi < funcs.size(); ++fi) {
    const ExprFunction& builtin = *funcs[fi];
    ExprFunction roundtrip(kRankDims, builtin.Expr());
    EXPECT_EQ(builtin.plan().shape, expected_shapes[fi])
        << builtin.ToString();
    EXPECT_EQ(roundtrip.plan().shape, expected_shapes[fi])
        << builtin.ToString();

    // The same tree scores and bounds the same whoever built it.
    std::vector<double> expect = ScalarOracle(builtin, table, tids);
    std::vector<double> got(tids.size());
    kernels::BlockEvaluator(table, roundtrip)
        .Score(tids.data(), tids.size(), got.data());
    for (size_t i = 0; i < tids.size(); ++i) {
      ASSERT_EQ(expect[i], got[i])
          << builtin.ToString() << " round-trip diverges at tid " << tids[i];
    }
    Box box = Box::Unit(kRankDims);
    for (int trial = 0; trial < 20; ++trial) {
      EXPECT_EQ(roundtrip.LowerBound(box), builtin.LowerBound(box))
          << builtin.ToString() << " " << box.ToString();
      for (int d = 0; d < kRankDims; ++d) {
        double a = rng.Uniform01(), b = rng.Uniform01();
        box[d] = {std::min(a, b), std::max(a, b)};
      }
    }
    const double lb = roundtrip.LowerBound(Box::Unit(kRankDims));
    for (double s : expect) ASSERT_GE(s, lb) << builtin.ToString();
  }
}

TEST(ExprRoundTripTest, UserDefinedTreeExecutesGenerically) {
  Table table = MakeTable(23);
  // Mul(Var0, Var1): monotone over [0,1]^2 but matching no kernel shape.
  ScoreExprPtr tree =
      ScoreExpr::Mul({ScoreExpr::Var(0), ScoreExpr::Var(1)});
  ExprFunction f(kRankDims, tree, "product");
  EXPECT_EQ(f.plan().shape, FuncShape::kGeneric);
  kernels::BlockEvaluator eval(table, f);
  EXPECT_FALSE(eval.fused());

  std::vector<Tid> tids = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> got(tids.size());
  eval.Score(tids.data(), tids.size(), got.data());
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(got[i], table.rank(tids[i], 0) * table.rank(tids[i], 1));
  }
  // Structural metadata: the product of two nonnegative dims is
  // non-decreasing in both (one entry per involved dimension).
  EXPECT_EQ(f.involved_dims(), (std::vector<int>{0, 1}));
  auto mono = f.MonotoneDirections();
  ASSERT_TRUE(mono.has_value());
  EXPECT_EQ(*mono, (std::vector<int>{1, 1}));
}

TEST(ExprRoundTripTest, KernelKillSwitchIsBitIdentical) {
  Table table = MakeTable(29);
  Rng rng(888);
  std::vector<Tid> tids = ScrambledTids(table, &rng);
  for (const auto& f : AllShapeFunctions(&rng)) {
    ASSERT_EQ(setenv("RANKCUBE_FUSED_KERNELS", "0", 1), 0);
    kernels::BlockEvaluator off(table, *f);
    EXPECT_FALSE(off.fused()) << f->ToString();
    std::vector<double> off_scores(tids.size());
    off.Score(tids.data(), tids.size(), off_scores.data());
    ASSERT_EQ(unsetenv("RANKCUBE_FUSED_KERNELS"), 0);

    kernels::BlockEvaluator on(table, *f);
    EXPECT_TRUE(on.fused()) << f->ToString();
    std::vector<double> on_scores(tids.size());
    on.Score(tids.data(), tids.size(), on_scores.data());
    EXPECT_EQ(off_scores, on_scores) << f->ToString();
  }
}

TEST(OfferBatchParityTest, AllWorseThanBoundLeavesHeapUntouched) {
  TopKHeap heap(2);
  const Tid tids[] = {1, 2, 3, 4};
  const double good[] = {0.1, 0.2, 0.3, 0.4};
  heap.OfferBatch(tids, good, 4);
  ASSERT_EQ(heap.KthScore(), 0.2);
  const double worse[] = {0.9, 0.8, 0.7, 0.2};  // 0.2 ties, not better
  heap.OfferBatch(tids, worse, 4);
  EXPECT_EQ(heap.KthScore(), 0.2);
  auto sorted = heap.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].tid, 1u);
  EXPECT_EQ(sorted[1].tid, 2u);
}

}  // namespace
}  // namespace rankcube
