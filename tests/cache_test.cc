// Result-cache acceptance suite. The contract under test:
//  (a) a cache hit is byte-identical to the uncached execution — for every
//      engine the planner can route, before and after inserts, deletes and
//      compaction (epoch-tag exactness: a write invalidates, a compaction
//      does not);
//  (b) certified near-duplicate reuse re-ranks a cached candidate set only
//      when the MaxAbsDiff bound proves the answer exact, and falls back to
//      full execution — still exact — whenever it cannot;
//  (c) canonical keys equate exactly the queries whose uncached executions
//      are bit-identical (predicate order, first-child Add flattening) and
//      nothing more;
//  (d) the partitioned scatter cache invalidates per partition: a write to
//      a partition the key's predicates exclude keeps the entry live, and
//      a write to an empty or bound-pruned partition invalidates it;
//  (e) the cache is safe under concurrent readers, writers and resizes
//      (this test runs in the TSan CI job);
//  (f) true-cost planner feedback drives the per-family EWMA correction to
//      the measured bias, clamps outliers, and is inert when disabled;
//  (g) the CACHE wire verb round-trips, and a cache-disabled server
//      reports kNotSupported rather than a transport error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/feedback.h"
#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "engine/query_builder.h"
#include "func/score_expr.h"
#include "gen/synthetic.h"
#include "partition/partitioned_db.h"
#include "planner/rank_cube_db.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "tests/reference.h"

namespace rankcube {
namespace {

const std::vector<std::string>& AllEngines() {
  static const std::vector<std::string> kEngines = {
      "grid",          "fragments",     "signature",
      "signature_lossy", "table_scan",  "boolean_first",
      "ranking_first", "rank_mapping",  "index_merge"};
  return kEngines;
}

TableSchema TestSchema() {
  TableSchema schema;
  schema.sel_cardinality = {5, 4, 3};
  schema.num_rank_dims = 2;
  return schema;
}

Table MakeTable(size_t rows, uint64_t seed = 7) {
  Table t(TestSchema());
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int32_t> sel = {static_cast<int32_t>(rng.UniformInt(5)),
                                static_cast<int32_t>(rng.UniformInt(4)),
                                static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    EXPECT_TRUE(t.AddRow(sel, rank).ok());
  }
  return t;
}

ScoreExprPtr Linear2(double w0, double w1) {
  return ScoreExpr::Add(
      {ScoreExpr::Mul({ScoreExpr::Const(w0), ScoreExpr::Var(0)}),
       ScoreExpr::Mul({ScoreExpr::Const(w1), ScoreExpr::Var(1)})});
}

/// The mutable db under test (cache on) and its cache-disabled twin fed the
/// identical writes; both route through the same planner, so "hit equals
/// uncached execution" is literal tuple equality.
struct DbPair {
  RankCubeDb cached;
  RankCubeDb oracle;

  explicit DbPair(size_t rows, std::vector<std::string> engines = {})
      : cached(MakeTable(rows), CachedOptions(engines)),
        oracle(MakeTable(rows), OracleOptions(std::move(engines))) {}

  static RankCubeDb::Options CachedOptions(std::vector<std::string> engines) {
    RankCubeDb::Options o;
    o.engines = std::move(engines);
    o.cache.max_bytes = 8u << 20;
    return o;
  }
  static RankCubeDb::Options OracleOptions(std::vector<std::string> engines) {
    RankCubeDb::Options o;
    o.engines = std::move(engines);
    return o;
  }

  void InsertBoth(const std::vector<int32_t>& sel,
                  const std::vector<double>& rank) {
    auto a = cached.Insert(sel, rank);
    auto b = oracle.Insert(sel, rank);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a.value(), b.value());  // identical writes => identical tids
  }

  void DeleteBoth(Tid tid) {
    ASSERT_TRUE(cached.Delete(tid).ok());
    ASSERT_TRUE(oracle.Delete(tid).ok());
  }

  /// Runs `query` on both sides and requires tuple-identical answers.
  std::vector<ScoredTuple> ExpectParity(const TopKQuery& query) {
    auto got = cached.Query(query);
    auto want = oracle.Query(query);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(want.ok()) << want.status().ToString();
    if (!got.ok() || !want.ok()) return {};
    EXPECT_EQ(got.value().tuples, want.value().tuples);
    return got.value().tuples;
  }
};

// ---------------------------------------------------------------------------
// Canonical keys: equate exactly the bit-identical executions.

TEST(CanonicalQueryTest, PredicateOrderDoesNotChangeTheKey) {
  TopKQuery a = QueryBuilder()
                    .Where(0, 2)
                    .Where(2, 1)
                    .OrderByLinear({1.0, 2.0})
                    .Limit(10)
                    .Build();
  TopKQuery b = QueryBuilder()
                    .Where(2, 1)
                    .Where(0, 2)
                    .OrderByLinear({1.0, 2.0})
                    .Limit(10)
                    .Build();
  CanonicalQuery ka = CanonicalizeQuery(a);
  CanonicalQuery kb = CanonicalizeQuery(b);
  ASSERT_TRUE(ka.cacheable);
  ASSERT_TRUE(kb.cacheable);
  EXPECT_EQ(ka.full_key, kb.full_key);
  EXPECT_EQ(ka.sibling_key, kb.sibling_key);
}

TEST(CanonicalQueryTest, KSplitsFamiliesAndWeightsSplitOnlyTheFullKey) {
  TopKQuery base =
      QueryBuilder().Where(1, 1).OrderByLinear({1.0, 2.0}).Limit(10).Build();
  TopKQuery other_k =
      QueryBuilder().Where(1, 1).OrderByLinear({1.0, 2.0}).Limit(20).Build();
  TopKQuery other_w =
      QueryBuilder().Where(1, 1).OrderByLinear({3.0, 0.5}).Limit(10).Build();
  CanonicalQuery kb = CanonicalizeQuery(base);
  CanonicalQuery kk = CanonicalizeQuery(other_k);
  CanonicalQuery kw = CanonicalizeQuery(other_w);
  // A different k is a different family — its prefix answers a different
  // question.
  EXPECT_NE(kb.sibling_key, kk.sibling_key);
  // A different function shares the family (the reuse candidate set) but
  // never the exact-hit key.
  EXPECT_EQ(kb.sibling_key, kw.sibling_key);
  EXPECT_NE(kb.full_key, kw.full_key);
}

TEST(CanonicalQueryTest, OnlyFirstChildAddFlatteningIsCoalesced) {
  ScoreExprPtr a = ScoreExpr::Mul({ScoreExpr::Const(2.0), ScoreExpr::Var(0)});
  ScoreExprPtr b = ScoreExpr::Mul({ScoreExpr::Const(3.0), ScoreExpr::Var(1)});
  ScoreExprPtr c = ScoreExpr::Const(0.25);
  // Eval folds Add left to right from 0.0, so Add[Add[a,b],c] computes the
  // very doubles Add[a,b,c] does — one key.
  std::string nested_first =
      CanonicalExprKey(*ScoreExpr::Add({ScoreExpr::Add({a, b}), c}));
  std::string flat = CanonicalExprKey(*ScoreExpr::Add({a, b, c}));
  EXPECT_EQ(nested_first, flat);
  // Add[c,Add[a,b]] folds in a different order; equating it would trade a
  // wrong answer for a cache hit.
  std::string nested_second =
      CanonicalExprKey(*ScoreExpr::Add({c, ScoreExpr::Add({a, b})}));
  EXPECT_NE(nested_second, flat);
}

/// A ranking function with no expression tree: structural identity cannot
/// be proven, so the cache must pass such queries through untouched.
class OpaqueFunction : public RankingFunction {
 public:
  OpaqueFunction() : dims_{0, 1} {}
  int num_dims() const override { return 2; }
  const std::vector<int>& involved_dims() const override { return dims_; }
  double Evaluate(const double* p) const override { return p[0] + p[1]; }
  double LowerBound(const Box& box) const override {
    return box[0].lo + box[1].lo;
  }
  std::string ToString() const override { return "opaque"; }

 private:
  std::vector<int> dims_;
};

TEST(CanonicalQueryTest, FunctionWithoutExprTreeIsNotCacheable) {
  TopKQuery q = QueryBuilder()
                    .OrderBy(std::make_shared<OpaqueFunction>())
                    .Limit(5)
                    .Build();
  EXPECT_FALSE(CanonicalizeQuery(q).cacheable);

  // End to end: the query answers correctly and never populates the cache.
  DbPair pair(400);
  pair.ExpectParity(q);
  pair.ExpectParity(q);
  ResultCacheStats stats = pair.cached.CacheStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// MaxAbsDiff: the certification bound behind near-duplicate reuse.

TEST(MaxAbsDiffTest, LinearPairBoundIsTheWeightDeltaSum) {
  ScoreExprPtr f = Linear2(1.0, 2.0);
  ScoreExprPtr g = Linear2(1.003, 1.998);
  Box unit = Box::Unit(2);
  double bound = MaxAbsDiff(*f, *g, unit);
  // Structure-parallel descent sees the shared Var nodes, so the bound is
  // sum_d |dw_d| — attained at the corner (1,1) — not the naive
  // Range(f) - Range(g) blowup.
  EXPECT_NEAR(bound, 0.003 + 0.002, 1e-12);
  // Soundness at the attaining corner.
  double corner[2] = {1.0, 1.0};
  ExprFunction ff(2, f), gg(2, g);
  EXPECT_LE(std::abs(ff.Evaluate(corner) - gg.Evaluate(corner)),
            bound + 1e-12);
}

TEST(MaxAbsDiffTest, IdenticalAndSharedTreesBoundToZero) {
  ScoreExprPtr f = Linear2(1.5, 0.5);
  Box unit = Box::Unit(2);
  EXPECT_EQ(MaxAbsDiff(*f, *f, unit), 0.0);
  // Structurally equal but distinct allocations.
  EXPECT_EQ(MaxAbsDiff(*Linear2(1.5, 0.5), *Linear2(1.5, 0.5), unit), 0.0);
}

TEST(MaxAbsDiffTest, GateBandMismatchIsUnprovable) {
  ScoreExprPtr body = Linear2(1.0, 1.0);
  ScoreExprPtr f = ScoreExpr::Gate(body, 0, 0.0, 0.6);
  ScoreExprPtr g = ScoreExpr::Gate(body, 0, 0.1, 0.7);
  // The gates disagree on [0.0, 0.1): f is finite there, g is +inf — no
  // finite bound exists and the reuse path must fall back.
  EXPECT_EQ(MaxAbsDiff(*f, *g, Box::Unit(2)), kInfScore);
  // Identical bands are fine.
  ScoreExprPtr h = ScoreExpr::Gate(Linear2(1.001, 1.0), 0, 0.0, 0.6);
  EXPECT_LT(MaxAbsDiff(*f, *h, Box::Unit(2)), 0.0011);
}

TEST(MaxAbsDiffTest, NeverUnderestimatesOnSampledPoints) {
  // Shape-mismatched pair: falls back to the interval RangeDiff bound,
  // which must still dominate every sampled |f - g|.
  ScoreExprPtr f = Linear2(1.0, 2.0);
  ScoreExprPtr g = ScoreExpr::Add(
      {ScoreExpr::Square(ScoreExpr::Var(0)),
       ScoreExpr::Mul({ScoreExpr::Const(2.0), ScoreExpr::Var(1)})});
  Box unit = Box::Unit(2);
  double bound = MaxAbsDiff(*f, *g, unit);
  ASSERT_LT(bound, kInfScore);
  ExprFunction ff(2, f), gg(2, g);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    double p[2] = {rng.Uniform01(), rng.Uniform01()};
    EXPECT_LE(std::abs(ff.Evaluate(p) - gg.Evaluate(p)), bound + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// ResultCache in isolation.

TEST(ResultCacheUnitTest, EpochTagsEvictionAndFamilyHistory) {
  ResultCacheOptions opts;
  opts.max_bytes = 4u << 20;
  ResultCache cache(opts);
  TopKQuery q =
      QueryBuilder().Where(0, 1).OrderByLinear({1.0, 2.0}).Limit(3).Build();
  CanonicalQuery key = CanonicalizeQuery(q);
  ASSERT_TRUE(key.cacheable);
  EXPECT_FALSE(cache.FamilySeen(key));

  CachedResult value;
  value.tuples = {{1, 0.1}, {2, 0.2}, {3, 0.3}};
  value.exclusion_bound = 0.4;
  value.expr = q.function->Expr();
  cache.Insert(key, "e1", value);
  EXPECT_TRUE(cache.FamilySeen(key));

  // Exact hit at the matching tag, with the full stored prefix.
  auto hit = cache.Lookup(key, "e1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tuples.size(), 3u);
  EXPECT_EQ(cache.Stats().hits, 1u);

  // A different tag lazily erases the entry — exactly once.
  EXPECT_FALSE(cache.Lookup(key, "e2").has_value());
  EXPECT_EQ(cache.Stats().invalidations, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  // The family history survives the invalidation (it drives overfetch).
  EXPECT_TRUE(cache.FamilySeen(key));

  // Siblings: same selection + k, different function.
  cache.Insert(key, "e2", value);
  TopKQuery q2 =
      QueryBuilder().Where(0, 1).OrderByLinear({1.1, 2.0}).Limit(3).Build();
  CanonicalQuery key2 = CanonicalizeQuery(q2);
  ASSERT_EQ(key.sibling_key, key2.sibling_key);
  EXPECT_EQ(cache.FindSiblings(key2, "e2").size(), 1u);
  EXPECT_TRUE(cache.FindSiblings(key2, "e3").empty());  // stale => erased
  EXPECT_EQ(cache.Stats().entries, 0u);

  // Shrinking the budget evicts; zero disables outright.
  cache.Insert(key, "e3", value);
  cache.Resize(64);  // smaller than any entry
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_GT(cache.Stats().evictions, 0u);
  cache.Resize(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(key, "e3", value);
  EXPECT_FALSE(cache.Lookup(key, "e3").has_value());
}

// ---------------------------------------------------------------------------
// End-to-end exactness: hit == uncached execution, across every engine and
// every mutation class.

TEST(CacheDbTest, HitsSurviveWritesAndCompactionAcrossAllEngines) {
  for (const std::string& engine : AllEngines()) {
    SCOPED_TRACE("engine: " + engine);
    if (engine == "rank_mapping") {
      // rank_mapping is force-only (it needs an oracle k-th-score bound),
      // and a forced engine deliberately bypasses the cache: the user asked
      // for a specific execution, not a remembered one. Pin down exactly
      // that: forced queries answer, repeat identically, and never touch
      // the cache.
      DbPair pair(1200);
      TopKQuery q = QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build();
      QueryOptions force;
      force.force_engine = engine;
      auto a = pair.cached.Query(q, force);
      auto b = pair.cached.Query(q, force);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a.value().tuples, b.value().tuples);
      ResultCacheStats stats = pair.cached.CacheStats();
      EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0u);
      continue;
    }
    DbPair pair(1200, {engine});
    // index_merge answers only predicate-free queries; every other engine
    // gets a selective one too.
    std::vector<TopKQuery> workload;
    workload.push_back(
        QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build());
    if (engine != "index_merge") {
      workload.push_back(QueryBuilder()
                             .Where(0, 2)
                             .OrderByLinear({2.0, 1.0})
                             .Limit(10)
                             .Build());
    }
    Tid next_delete = 5;
    for (const TopKQuery& q : workload) {
      SCOPED_TRACE(q.ToString());
      // Cold: miss. Warm: exact full-key hit, tuple-identical.
      ResultCacheStats before = pair.cached.CacheStats();
      std::vector<ScoredTuple> cold = pair.ExpectParity(q);
      std::vector<ScoredTuple> warm = pair.ExpectParity(q);
      EXPECT_EQ(cold, warm);
      ResultCacheStats after = pair.cached.CacheStats();
      EXPECT_EQ(after.misses, before.misses + 1);
      EXPECT_EQ(after.hits, before.hits + 1);

      // An insert invalidates and the re-executed answer is exact.
      pair.InsertBoth({2, 1, 0}, {0.001, 0.002});
      pair.ExpectParity(q);
      EXPECT_GE(pair.cached.CacheStats().invalidations,
                after.invalidations + 1);

      // A delete invalidates too.
      pair.DeleteBoth(next_delete++);
      pair.ExpectParity(q);

      // Warm the entry back, then compact: the epoch is preserved, so the
      // entry must still hit — compaction never invalidates.
      pair.ExpectParity(q);
      ResultCacheStats warm2 = pair.cached.CacheStats();
      ASSERT_TRUE(pair.cached.Compact().ok());
      ASSERT_TRUE(pair.oracle.Compact().ok());
      pair.ExpectParity(q);
      ResultCacheStats post = pair.cached.CacheStats();
      EXPECT_EQ(post.hits, warm2.hits + 1);
      EXPECT_EQ(post.misses, warm2.misses);
    }
  }
}

TEST(CacheDbTest, HitsMatchBruteForceOracle) {
  Table table = MakeTable(800, 21);
  RankCubeDb db(MakeTable(800, 21), DbPair::CachedOptions({}));
  std::vector<TopKQuery> workload = {
      QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(7).Build(),
      QueryBuilder().Where(1, 2).OrderByLinear({0.5, 3.0}).Limit(12).Build(),
      QueryBuilder()
          .Where(0, 3)
          .Where(2, 1)
          .OrderByDistance({1.0, 1.0}, {0.4, 0.6})
          .Limit(5)
          .Build(),
  };
  for (const TopKQuery& q : workload) {
    SCOPED_TRACE(q.ToString());
    std::vector<ScoredTuple> want = BruteForceTopK(table, q);
    for (int pass = 0; pass < 2; ++pass) {  // cold then cached
      auto got = db.Query(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(ScoresOf(got.value().tuples), ScoresOf(want));
    }
  }
  EXPECT_GE(db.CacheStats().hits, workload.size());
}

// ---------------------------------------------------------------------------
// Certified near-duplicate reuse.

TEST(CacheDbTest, CertifiedReuseOfNearDuplicateWeightsIsExact) {
  DbPair pair(2000);
  auto weights_query = [](double w0, double w1) {
    return QueryBuilder()
        .Where(0, 2)
        .OrderByLinear({w0, w1})
        .Limit(10)
        .Build();
  };
  // Establish the family (first sighting executes at plain k), then force
  // an overfetched entry with the first near-duplicate miss.
  pair.ExpectParity(weights_query(1.0, 2.0));
  pair.ExpectParity(weights_query(1.0002, 2.0));
  // This near-duplicate should re-rank the cached candidate set — no full
  // execution — and still match the cache-disabled twin exactly.
  ResultCacheStats before = pair.cached.CacheStats();
  pair.ExpectParity(weights_query(1.0, 2.0003));
  ResultCacheStats after = pair.cached.CacheStats();
  EXPECT_EQ(after.reuse_hits, before.reuse_hits + 1)
      << "near-duplicate did not certify";
  EXPECT_EQ(after.misses, before.misses);

  // The reuse result was re-cached: repeating it is now an exact hit.
  pair.ExpectParity(weights_query(1.0, 2.0003));
  EXPECT_EQ(pair.cached.CacheStats().hits, after.hits + 1);
}

TEST(CacheDbTest, DistantFunctionFallsBackToFullExecution) {
  DbPair pair(2000);
  auto weights_query = [](double w0, double w1) {
    return QueryBuilder()
        .Where(0, 2)
        .OrderByLinear({w0, w1})
        .Limit(10)
        .Build();
  };
  pair.ExpectParity(weights_query(1.0, 2.0));
  pair.ExpectParity(weights_query(1.0001, 2.0));  // overfetched entry exists
  // delta = |dw0| + |dw1| = 2.5 dwarfs any bound gap: certification must
  // refuse, and the fallback answer is exact.
  ResultCacheStats before = pair.cached.CacheStats();
  pair.ExpectParity(weights_query(3.0, 0.5));
  ResultCacheStats after = pair.cached.CacheStats();
  EXPECT_EQ(after.reuse_hits, before.reuse_hits);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(CacheDbTest, GateBandMismatchFallsBackToFullExecution) {
  DbPair pair(2000);
  auto gated_query = [](double lo, double hi, double w0) {
    return QueryBuilder()
        .OrderByExpr(2, ScoreExpr::Gate(Linear2(w0, 1.0), 0, lo, hi))
        .Limit(8)
        .Build();
  };
  pair.ExpectParity(gated_query(0.0, 0.6, 1.0));
  pair.ExpectParity(gated_query(0.0, 0.6, 1.0001));  // deep entry in family
  // Same family (same predicates, same k) but the band moved: MaxAbsDiff
  // is +inf, so reuse must not fire — and the answer stays exact.
  ResultCacheStats before = pair.cached.CacheStats();
  pair.ExpectParity(gated_query(0.1, 0.7, 1.0));
  ResultCacheStats after = pair.cached.CacheStats();
  EXPECT_EQ(after.reuse_hits, before.reuse_hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  // A band-identical near-duplicate in the same family still certifies.
  pair.ExpectParity(gated_query(0.0, 0.6, 1.0002));
  EXPECT_GE(pair.cached.CacheStats().reuse_hits, before.reuse_hits + 1);
}

// ---------------------------------------------------------------------------
// Cache control: disabled by default, runtime resize/clear, byte budget.

TEST(CacheDbTest, DisabledByDefaultAndResizeEnablesAtRuntime) {
  RankCubeDb db(MakeTable(600));  // default options: cache off
  EXPECT_FALSE(db.cache_enabled());
  TopKQuery q = QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(5).Build();
  ASSERT_TRUE(db.Query(q).ok());
  ASSERT_TRUE(db.Query(q).ok());
  ResultCacheStats stats = db.CacheStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.max_bytes, 0u);

  db.ResizeCache(1u << 20);
  EXPECT_TRUE(db.cache_enabled());
  auto first = db.Query(q);
  auto second = db.Query(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().tuples, second.value().tuples);
  EXPECT_EQ(db.CacheStats().hits, 1u);

  db.ClearCache();
  EXPECT_EQ(db.CacheStats().entries, 0u);
  ASSERT_TRUE(db.Query(q).ok());  // re-executes, no crash
  EXPECT_EQ(db.CacheStats().hits, 1u);
}

TEST(CacheDbTest, TinyBudgetEvictsButNeverChangesAnswers) {
  DbPair pair(800);
  pair.cached.ResizeCache(16 * 1500);  // ~1.5 KB per shard: a few entries
  Rng rng(31);
  for (int i = 0; i < 120; ++i) {
    TopKQuery q = QueryBuilder()
                      .Where(0, static_cast<int32_t>(rng.UniformInt(5)))
                      .OrderByLinear({1.0 + 0.01 * i, 2.0})
                      .Limit(10)
                      .Build();
    pair.ExpectParity(q);
  }
  ResultCacheStats stats = pair.cached.CacheStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.max_bytes);
}

// ---------------------------------------------------------------------------
// Partitioned scatter cache: invalidation is per partition.

TEST(PartitionedCacheTest, WritesToExcludedPartitionsKeepEntriesLive) {
  TableSchema schema;
  schema.sel_cardinality = {16, 4, 3};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.cache.max_bytes = 4u << 20;
  auto pdb = PartitionedDb::Open(std::move(popts)).value();

  Rng rng(47);
  auto random_row = [&](int32_t dim0) {
    std::vector<int32_t> sel = {dim0, static_cast<int32_t>(rng.UniformInt(4)),
                                static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    return std::make_pair(sel, rank);
  };
  for (const auto& [name, lo, hi] :
       {std::tuple<std::string, int32_t, int32_t>{"a", 0, 8},
        std::tuple<std::string, int32_t, int32_t>{"b", 8, 16}}) {
    Table seed(schema);
    for (int i = 0; i < 300; ++i) {
      auto [sel, rank] = random_row(lo + static_cast<int32_t>(
                                             rng.UniformInt(hi - lo)));
      ASSERT_TRUE(seed.AddRow(sel, rank).ok());
    }
    ASSERT_TRUE(pdb->CreatePartition(name, {lo, hi}, std::move(seed)).ok());
  }

  // Pin the query to partition "a" and warm the cache.
  TopKQuery q =
      QueryBuilder().Where(0, 2).OrderByLinear({1.0, 2.0}).Limit(10).Build();
  auto cold = pdb->Query(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = pdb->Query(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold.value().tuples, warm.value().tuples);
  ResultCacheStats after_warm = pdb->CacheStats();
  EXPECT_EQ(after_warm.hits, 1u);

  // A write routed to partition "b" cannot change the answer, and the
  // folded epoch tag knows it: still a hit, no invalidation.
  auto [sel_b, rank_b] = random_row(12);
  ASSERT_TRUE(pdb->Insert(sel_b, rank_b).ok());
  auto still = pdb->Query(q);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value().tuples, warm.value().tuples);
  ResultCacheStats after_b = pdb->CacheStats();
  EXPECT_EQ(after_b.hits, 2u);
  EXPECT_EQ(after_b.invalidations, 0u);

  // A write routed to partition "a" invalidates, and the re-executed
  // answer reflects it: insert a row that must win the top-k.
  ASSERT_TRUE(pdb->Insert({2, 0, 0}, {0.0, 0.0}).ok());
  auto fresh = pdb->Query(q);
  ASSERT_TRUE(fresh.ok());
  ResultCacheStats after_a = pdb->CacheStats();
  EXPECT_EQ(after_a.invalidations, 1u);
  EXPECT_EQ(after_a.hits, 2u);
  ASSERT_FALSE(fresh.value().tuples.empty());
  EXPECT_EQ(fresh.value().tuples.front().score, 0.0);
  EXPECT_NE(fresh.value().tuples, still.value().tuples);
}

// A query without a predicate on the partition dimension depends on every
// partition, even those the scatter never queries: a row inserted into an
// empty partition, or into one the S_k bound pruned, can enter its answer.
TEST(PartitionedCacheTest, WritesToEmptyAndBoundPrunedPartitionsInvalidate) {
  TableSchema schema;
  schema.sel_cardinality = {12, 4};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.cache.max_bytes = 4u << 20;
  auto pdb = PartitionedDb::Open(std::move(popts)).value();

  // "hot" rows score in [0.6, 1.0] under linear {1, 1}, "cold" rows in
  // [1.6, 2.0], and "empty" holds none. The oracle is one unpartitioned
  // db over the same rows, in partition creation order.
  Table oracle_table(schema);
  std::map<std::pair<std::string, Tid>, Tid> to_global;
  Rng rng(53);
  for (const auto& [name, lo, base] :
       {std::tuple<std::string, int32_t, double>{"hot", 0, 0.3},
        std::tuple<std::string, int32_t, double>{"cold", 4, 0.8}}) {
    Table seed(schema);
    for (int i = 0; i < 100; ++i) {
      std::vector<int32_t> sel = {lo + static_cast<int32_t>(rng.UniformInt(4)),
                                  static_cast<int32_t>(rng.UniformInt(4))};
      std::vector<double> rank = {base + 0.2 * rng.Uniform01(),
                                  base + 0.2 * rng.Uniform01()};
      to_global[{name, static_cast<Tid>(seed.num_rows())}] =
          static_cast<Tid>(oracle_table.num_rows());
      ASSERT_TRUE(seed.AddRow(sel, rank).ok());
      ASSERT_TRUE(oracle_table.AddRow(sel, rank).ok());
    }
    ASSERT_TRUE(pdb->CreatePartition(name, {lo, lo + 4}, std::move(seed)).ok());
  }
  ASSERT_TRUE(pdb->CreatePartition("empty", {8, 12}).ok());
  RankCubeDb oracle(std::move(oracle_table));

  TopKQuery q = QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build();
  QueryOptions scan;
  scan.force_engine = "table_scan";
  auto expect_oracle = [&](const PartitionedTopK& top) {
    auto truth = oracle.Query(q, scan);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    std::vector<ScoredTuple> got;
    for (const PartitionedTuple& t : top.tuples) {
      auto it = to_global.find({t.partition, t.tid});
      ASSERT_NE(it, to_global.end()) << t.partition << "/" << t.tid;
      got.push_back({it->second, t.score});
    }
    EXPECT_EQ(got, truth.value().tuples);
  };

  auto first = pdb->Query(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().scatter.queried, 1u);
  EXPECT_EQ(first.value().scatter.pruned_by_bound, 1u);
  EXPECT_EQ(first.value().scatter.skipped_empty, 1u);
  expect_oracle(first.value());
  ASSERT_TRUE(pdb->Query(q).ok());
  EXPECT_EQ(pdb->CacheStats().hits, 1u);

  // Each row scores below every seeded row, so it must lead the answer.
  uint64_t invalidations = 0;
  for (const auto& [dim0, partition, score] :
       {std::tuple<int32_t, std::string, double>{9, "empty", 0.2},
        std::tuple<int32_t, std::string, double>{5, "cold", 0.1}}) {
    SCOPED_TRACE("insert into " + partition);
    const std::vector<double> rank = {score / 2, score / 2};
    auto ref = pdb->Insert({dim0, 0}, rank);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(ref.value().partition, partition);
    auto global = oracle.Insert({dim0, 0}, rank);
    ASSERT_TRUE(global.ok()) << global.status().ToString();
    to_global[{partition, ref.value().tid}] = global.value();

    auto fresh = pdb->Query(q);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(pdb->CacheStats().invalidations, ++invalidations);
    EXPECT_EQ(pdb->CacheStats().hits, 1u);
    ASSERT_FALSE(fresh.value().tuples.empty());
    EXPECT_EQ(fresh.value().tuples.front().partition, partition);
    expect_oracle(fresh.value());
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under TSan in CI): readers populating the cache race
// each other and runtime control calls, never a writer.

TEST(CacheConcurrencyTest, ConcurrentReadersWritersAndResizes) {
  RankCubeDb db(MakeTable(1500), DbPair::CachedOptions({}));
  std::vector<TopKQuery> pool;
  for (int i = 0; i < 8; ++i) {
    pool.push_back(QueryBuilder()
                       .Where(0, i % 5)
                       .OrderByLinear({1.0 + 0.1 * i, 2.0})
                       .Limit(10)
                       .Build());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 250; ++i) {
        TopKQuery q = pool[rng.UniformInt(pool.size())];
        if (rng.Uniform01() < 0.2) {  // near-duplicate: exercise reuse
          auto lin = std::make_shared<LinearFunction>(std::vector<double>{
              1.0 + 0.0001 * rng.Uniform01(), 2.0});
          q.function = lin;
        }
        if (!db.Query(q).ok()) failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    Rng rng(999);
    for (int i = 0; i < 30 && !stop.load(); ++i) {
      auto tid = db.Insert({static_cast<int32_t>(rng.UniformInt(5)),
                            static_cast<int32_t>(rng.UniformInt(4)),
                            static_cast<int32_t>(rng.UniformInt(3))},
                           {rng.Uniform01(), rng.Uniform01()});
      if (!tid.ok()) failures.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread control([&] {
    for (int i = 0; i < 10 && !stop.load(); ++i) {
      db.ResizeCache((i % 2 == 0) ? (1u << 20) : (8u << 20));
      (void)db.CacheStats();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    db.ClearCache();
  });
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  control.join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: every pool query must agree with a scratch db holding the
  // same rows (the writer's inserts are deterministic given its seed, but
  // easier: compare against the same db with the cache cleared and
  // disabled).
  db.ClearCache();
  std::vector<std::vector<ScoredTuple>> uncached;
  db.ResizeCache(0);
  for (const TopKQuery& q : pool) {
    auto r = db.Query(q);
    ASSERT_TRUE(r.ok());
    uncached.push_back(r.value().tuples);
  }
  db.ResizeCache(8u << 20);
  for (size_t i = 0; i < pool.size(); ++i) {
    auto cold = db.Query(pool[i]);
    auto hit = db.Query(pool[i]);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(cold.value().tuples, uncached[i]);
    EXPECT_EQ(hit.value().tuples, uncached[i]);
  }
}

// ---------------------------------------------------------------------------
// True-cost planner feedback.

TEST(FeedbackTest, EwmaConvergesToTheMeasuredBias) {
  CostFeedback fb;
  // The cost model underestimates grid-family queries 2.5x. Observations
  // carry the *corrected* estimate, so the loop must drive the residual to
  // zero: corrected estimates converge to the measured pages.
  const double raw_estimate = 100.0, measured = 250.0;
  for (int i = 0; i < 60; ++i) {
    double corrected = raw_estimate * fb.Correction("grid");
    fb.Observe("grid", corrected, measured);
  }
  EXPECT_NEAR(fb.Correction("grid"), measured / raw_estimate, 0.1);
  // grid and fragments share one cuboid cost shape — one family.
  EXPECT_EQ(fb.Correction("fragments"), fb.Correction("grid"));
  // table_scan corrects under its own key: untouched.
  EXPECT_EQ(fb.Correction("table_scan"), 1.0);
}

TEST(FeedbackTest, OutliersAreClampedAndDisableIsAnIdentity) {
  CostFeedback fb;
  for (int i = 0; i < 200; ++i) fb.Observe("table_scan", 1.0, 1e9);
  EXPECT_LE(fb.Correction("table_scan"), 10.0);  // upper clamp
  for (int i = 0; i < 200; ++i) fb.Observe("signature", 1e9, 1.0);
  EXPECT_GE(fb.Correction("signature"), 0.1);  // lower clamp

  double learned = fb.Correction("table_scan");
  fb.set_enabled(false);
  EXPECT_EQ(fb.Correction("table_scan"), 1.0);  // identity while off
  fb.Observe("table_scan", 1.0, 1.0);           // no-op while off
  fb.set_enabled(true);
  EXPECT_EQ(fb.Correction("table_scan"), learned);  // state survived
}

TEST(FeedbackTest, DbRecordsObservationsAndResetForgets) {
  RankCubeDb db(MakeTable(800));
  for (int i = 0; i < 5; ++i) {
    TopKQuery q = QueryBuilder()
                      .Where(0, i % 5)
                      .OrderByLinear({1.0, 2.0 + i})
                      .Limit(10)
                      .Build();
    ASSERT_TRUE(db.Query(q).ok());
  }
  auto snapshot = db.FeedbackSnapshot();
  uint64_t total = 0;
  for (const auto& [family, state] : snapshot) {
    total += state.observations;
    EXPECT_GE(state.correction, 0.1);
    EXPECT_LE(state.correction, 10.0);
  }
  EXPECT_GE(total, 5u);

  db.ResetFeedback();
  for (const auto& [family, state] : db.FeedbackSnapshot()) {
    EXPECT_EQ(state.observations, 0u);
    EXPECT_EQ(state.correction, 1.0);
  }

  // Kill switch mirrors CostFeedback semantics through the db surface.
  db.SetFeedbackEnabled(false);
  TopKQuery q = QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build();
  ASSERT_TRUE(db.Query(q).ok());
  uint64_t after_disabled = 0;
  for (const auto& [family, state] : db.FeedbackSnapshot()) {
    after_disabled += state.observations;
  }
  EXPECT_EQ(after_disabled, 0u);
  db.SetFeedbackEnabled(true);
}

// ---------------------------------------------------------------------------
// CACHE wire verb.

class CacheServerTest : public ::testing::Test {
 protected:
  void StartServer(size_t cache_bytes) {
    SyntheticSpec spec;
    spec.num_rows = 2000;
    spec.num_sel_dims = 3;
    spec.cardinality = 5;
    spec.num_rank_dims = 2;
    spec.seed = 99;
    RankCubeDb::Options db_options;
    db_options.cache.max_bytes = cache_bytes;
    db_ = std::make_unique<RankCubeDb>(GenerateSynthetic(spec), db_options);
    server_ = std::make_unique<RankCubeServer>(db_.get(),
                                               RankCubeServer::Options{});
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  RankCubeClient Connect() {
    auto client = RankCubeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  static std::string Joined(const Response& r) {
    std::string out = r.message;
    for (const std::string& line : r.lines) out += "\n" + line;
    return out;
  }

  std::unique_ptr<RankCubeDb> db_;
  std::unique_ptr<RankCubeServer> server_;
};

TEST_F(CacheServerTest, StatsClearAndResizeRoundTrip) {
  StartServer(4u << 20);
  RankCubeClient client = Connect();

  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,2";
  spec.where = {{0, 3}};
  auto first = client.QueryTuples(spec);
  auto second = client.QueryTuples(spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), second.value());

  auto stats = client.CacheStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.value().ok()) << stats.value().message;
  std::string body = Joined(stats.value());
  EXPECT_NE(body.find("hits=1"), std::string::npos) << body;

  auto cleared = client.CacheClear();
  ASSERT_TRUE(cleared.ok());
  EXPECT_TRUE(cleared.value().ok());
  EXPECT_EQ(db_->CacheStats().entries, 0u);

  ASSERT_TRUE(client.CacheResize(1u << 20).ok());
  EXPECT_EQ(db_->CacheStats().max_bytes, 1u << 20);
}

TEST_F(CacheServerTest, DisabledCacheIsATypedErrorAndResizeReenables) {
  StartServer(0);  // --cache_mb=0
  RankCubeClient client = Connect();

  // Typed NOT_SUPPORTED through a healthy connection — not a transport
  // error.
  auto stats = client.CacheStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().ok());
  EXPECT_EQ(stats.value().code, WireCode::kNotSupported);

  auto cleared = client.CacheClear();
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared.value().code, WireCode::kNotSupported);

  // Resize is the one verb that works on a disabled cache: it enables it.
  auto resized = client.CacheResize(2u << 20);
  ASSERT_TRUE(resized.ok());
  EXPECT_TRUE(resized.value().ok()) << resized.value().message;
  EXPECT_TRUE(db_->cache_enabled());
  auto stats2 = client.CacheStats();
  ASSERT_TRUE(stats2.ok());
  EXPECT_TRUE(stats2.value().ok());
}

}  // namespace
}  // namespace rankcube
