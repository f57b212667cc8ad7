// Planner + RankCubeDb facade tests:
//  (a) planner-routed execution is tuple-identical to every forced engine
//      (and to the table_scan oracle),
//  (b) the chosen engine shifts with selectivity, predicate count, k and
//      function shape in the directions the paper's block-access analysis
//      predicts,
//  (c) force_engine and unplannable queries fail with clean Statuses,
//  (d) on a mixed workload the planner reads within 15% of the per-query
//      best engine's pages, and feedback calibrates its estimates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/query_builder.h"
#include "engine/registry.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"

namespace rankcube {
namespace {

Table SmallTable() {
  SyntheticSpec spec;
  spec.num_rows = 4000;
  spec.num_sel_dims = 3;
  spec.cardinality = 6;
  spec.num_rank_dims = 2;
  spec.seed = 77;
  return GenerateSynthetic(spec);
}

std::vector<TopKQuery> Workload(const Table& table, int num_predicates,
                                int num_queries = 6) {
  QueryWorkloadSpec spec;
  spec.num_queries = num_queries;
  spec.num_predicates = num_predicates;
  spec.num_rank_used = 2;
  spec.k = 7;
  spec.seed = 4242;
  return GenerateQueries(table, spec);
}

// (a) For every cataloged engine: forcing it gives the same tuples as the
// table_scan oracle and as the planner's own choice — the plan layer adds
// routing, never changes answers.
TEST(RankCubeDbTest, PlannerRoutedExecutionMatchesEveryForcedEngine) {
  RankCubeDb db(SmallTable());
  for (const std::string& name : db.Keys()) {
    SCOPED_TRACE("engine: " + name);
    // index_merge takes no predicates; everything else gets 2.
    bool preds = name != "index_merge";
    for (const TopKQuery& query : Workload(db.table(), preds ? 2 : 0)) {
      SCOPED_TRACE(query.ToString());
      QueryOptions force;
      force.force_engine = name;
      auto forced = db.Query(query, force);
      ASSERT_TRUE(forced.ok()) << forced.status().ToString();

      QueryOptions oracle_opts;
      oracle_opts.force_engine = "table_scan";
      auto oracle = db.Query(query, oracle_opts);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      EXPECT_EQ(forced.value().tuples, oracle.value().tuples);

      auto planned = db.Query(query);
      ASSERT_TRUE(planned.ok()) << planned.status().ToString();
      EXPECT_EQ(planned.value().tuples, oracle.value().tuples);
      ASSERT_NE(planned.value().plan, nullptr);
      EXPECT_FALSE(planned.value().plan->chosen_engine.empty());
    }
  }
}

TEST(RankCubeDbTest, QueryAttachesPlanAndExplainAgrees) {
  RankCubeDb db(SmallTable());
  TopKQuery q = QueryBuilder()
                    .Where(0, db.table().sel(5, 0))
                    .OrderByLinear({1.0, 2.0})
                    .Limit(5)
                    .Build();
  auto plan = db.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value().chosen_engine.empty());
  EXPECT_GT(plan.value().estimated_pages, 0.0);
  EXPECT_GE(plan.value().candidates.size(), 8u);  // all builtins considered
  // Explain costs nothing: no structure gets built.
  EXPECT_EQ(db.construction_pages(), 0u);

  auto result = db.Query(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().plan, nullptr);
  EXPECT_EQ(result.value().plan->chosen_engine, plan.value().chosen_engine);
  // Executing built the chosen structure and charged honest build I/O
  // (unless the plan picked the structure-free scan).
  if (plan.value().chosen_engine != "table_scan") {
    EXPECT_GT(db.construction_pages(), 0u);
  }
}

// (b) Selectivity shift: a needle predicate (tiny posting list) routes to
// the boolean-first index; a broad predicate routes to a cube structure,
// never the posting index.
TEST(PlannerRegimeTest, SelectivityShiftsIndexVersusCube) {
  // One high-cardinality dimension (needles) next to a binary one.
  SyntheticSpec spec;
  spec.num_rows = 6000;
  spec.num_sel_dims = 2;
  spec.sel_cardinalities = {2000, 2};
  spec.num_rank_dims = 2;
  spec.seed = 9;
  RankCubeDb db(GenerateSynthetic(spec));

  TopKQuery needle = QueryBuilder()
                         .Where(0, db.table().sel(0, 0))
                         .OrderByLinear({1.0, 1.0})
                         .Limit(10)
                         .Build();
  auto needle_plan = db.Explain(needle);
  ASSERT_TRUE(needle_plan.ok()) << needle_plan.status().ToString();
  EXPECT_EQ(needle_plan.value().chosen_engine, "boolean_first")
      << needle_plan.value().ToString();

  TopKQuery broad = QueryBuilder()
                        .Where(1, db.table().sel(0, 1))
                        .OrderByLinear({1.0, 1.0})
                        .Limit(10)
                        .Build();
  auto broad_plan = db.Explain(broad);
  ASSERT_TRUE(broad_plan.ok()) << broad_plan.status().ToString();
  EXPECT_NE(broad_plan.value().chosen_engine, "boolean_first")
      << broad_plan.value().ToString();
  EXPECT_NE(broad_plan.value().chosen_engine, "table_scan")
      << broad_plan.value().ToString();
}

// (b) Predicate-count shift: with only single-dimension grid cuboids
// materialized, a one-predicate query may use the grid but a two-predicate
// query must shift to a structure that assembles coverage online.
TEST(PlannerRegimeTest, PredicateCountShiftsGridToFragments) {
  RankCubeDb::Options options;
  options.build.grid.cuboid_dim_sets = {{0}, {1}};
  options.engines = {"grid", "fragments", "table_scan"};
  RankCubeDb db(SmallTable(), options);

  TopKQuery one = QueryBuilder()
                      .Where(0, 1)
                      .OrderByLinear({1.0, 1.0})
                      .Limit(10)
                      .Build();
  auto one_plan = db.Explain(one);
  ASSERT_TRUE(one_plan.ok()) << one_plan.status().ToString();
  EXPECT_TRUE(one_plan.value().chosen_engine == "grid" ||
              one_plan.value().chosen_engine == "fragments")
      << one_plan.value().ToString();

  TopKQuery two = QueryBuilder()
                      .Where(0, 1)
                      .Where(1, 2)
                      .OrderByLinear({1.0, 1.0})
                      .Limit(10)
                      .Build();
  auto two_plan = db.Explain(two);
  ASSERT_TRUE(two_plan.ok()) << two_plan.status().ToString();
  EXPECT_EQ(two_plan.value().chosen_engine, "fragments")
      << two_plan.value().ToString();
  // The grid candidate must be present and infeasible, with the coverage
  // gap named.
  bool saw_grid = false;
  for (const auto& c : two_plan.value().candidates) {
    if (c.engine == "grid") {
      saw_grid = true;
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("cuboid"), std::string::npos) << c.reason;
    }
  }
  EXPECT_TRUE(saw_grid);
  // Planner-routed execution agrees with the scan on both regimes.
  for (const TopKQuery& q : {one, two}) {
    auto planned = db.Query(q);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    QueryOptions force;
    force.force_engine = "table_scan";
    auto oracle = db.Query(q, force);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(planned.value().tuples, oracle.value().tuples);
  }
}

// (b) k shift: a progressive cube search costs pages proportional to k
// (blocks visited until k matches), while the posting-index plan pays the
// full match count regardless of k — so on a selective predicate, tiny k
// favors the cube and k >= all matches favors the index.
TEST(PlannerRegimeTest, KShiftsProgressiveCubeToBulkIndex) {
  SyntheticSpec spec;
  spec.num_rows = 20000;
  spec.num_sel_dims = 2;
  spec.sel_cardinalities = {1000, 4};  // ~20 matches per needle value
  spec.num_rank_dims = 2;
  spec.seed = 31;
  RankCubeDb db(GenerateSynthetic(spec));

  QueryBuilder builder;
  builder.Where(0, db.table().sel(0, 0)).OrderByLinear({1.0, 1.0});

  auto small_k = db.Explain(builder.Limit(1).Build());
  ASSERT_TRUE(small_k.ok());
  const std::string& at_1 = small_k.value().chosen_engine;
  EXPECT_TRUE(at_1 == "grid" || at_1 == "fragments")
      << small_k.value().ToString();

  auto large_k = db.Explain(builder.Limit(100).Build());
  ASSERT_TRUE(large_k.ok());
  EXPECT_EQ(large_k.value().chosen_engine, "boolean_first")
      << large_k.value().ToString();
}

// (b) Function-shape shift: the grid family requires convex functions
// (Lemma 1); a non-convex function forces the planner elsewhere.
TEST(PlannerRegimeTest, NonConvexFunctionExcludesGridFamily) {
  RankCubeDb db(SmallTable());
  TopKQuery q;
  q.function = std::make_shared<GeneralAB>(2, 0, 1);  // (A - B^2)^2
  q.k = 10;
  auto plan = db.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().chosen_engine, "grid");
  EXPECT_NE(plan.value().chosen_engine, "fragments");
  for (const auto& c : plan.value().candidates) {
    if (c.engine == "grid" || c.engine == "fragments") {
      EXPECT_FALSE(c.feasible);
      EXPECT_NE(c.reason.find("convex"), std::string::npos) << c.reason;
    }
  }
  auto planned = db.Query(q);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  QueryOptions force;
  force.force_engine = "table_scan";
  auto oracle = db.Query(q, force);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(planned.value().tuples, oracle.value().tuples);
}

// (c) force_engine: honored when cataloged, clean NotFound otherwise.
TEST(PlannerStatusTest, ForceEngineHonoredAndChecked) {
  RankCubeDb db(SmallTable());
  TopKQuery q = QueryBuilder()
                    .Where(0, 1)
                    .OrderByLinear({1.0, 1.0})
                    .Limit(5)
                    .Build();
  QueryOptions force;
  force.force_engine = "ranking_first";
  auto result = db.Query(q, force);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result.value().plan, nullptr);
  EXPECT_TRUE(result.value().plan->forced);
  EXPECT_EQ(result.value().plan->chosen_engine, "ranking_first");

  force.force_engine = "no_such_engine";
  auto missing = db.Query(q, force);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
  // The error lists what *is* available.
  EXPECT_NE(missing.status().message().find("table_scan"),
            std::string::npos)
      << missing.status().message();
}

// (c) Unplannable: a predicated query against a catalog holding only the
// predicate-free index_merge fails with a clean NotFound naming the gap.
TEST(PlannerStatusTest, UnplannableQueryFailsCleanly) {
  RankCubeDb::Options options;
  options.engines = {"index_merge"};
  RankCubeDb db(SmallTable(), options);
  TopKQuery q = QueryBuilder()
                    .Where(0, 1)
                    .OrderByLinear({1.0, 1.0})
                    .Limit(5)
                    .Build();
  auto plan = db.Explain(q);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kNotFound);
  EXPECT_NE(plan.status().message().find("predicate"), std::string::npos)
      << plan.status().message();
  auto result = db.Query(q);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);

  // The same query without predicates is plannable again.
  auto ok = db.Query(
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build());
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// A malformed query fails validation before planning, with the same
// InvalidArgument every engine reports.
TEST(PlannerStatusTest, MalformedQueryFailsBeforePlanning) {
  RankCubeDb db(SmallTable());
  TopKQuery bad =
      QueryBuilder().Where(0, 999).OrderByLinear({1, 1}).Limit(5).Build();
  auto plan = db.Explain(bad);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Status::Code::kInvalidArgument);
  auto result = db.Query(bad);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

// Concurrent Query calls on a fresh db: each query is planned on its own,
// and the lazy builds of the chosen structures race under the db's lock.
// Every answer equals the same query's single-query answer.
TEST(RankCubeDbTest, ConcurrentQueriesMatchSingleQueryExecution) {
  RankCubeDb db(SmallTable());
  // Mixed workload: predicated and unpredicated queries (they may
  // legitimately route to different engines).
  std::vector<TopKQuery> workload = Workload(db.table(), 2, 4);
  for (TopKQuery& q : Workload(db.table(), 0, 4)) {
    workload.push_back(std::move(q));
  }

  std::vector<Result<TopKResult>> concurrent(workload.size(),
                                             Status::Internal("not run"));
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i = cursor++; i < workload.size(); i = cursor++) {
        concurrent[i] = db.Query(workload[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < workload.size(); ++i) {
    SCOPED_TRACE(workload[i].ToString());
    ASSERT_TRUE(concurrent[i].ok()) << concurrent[i].status().ToString();
    ASSERT_NE(concurrent[i].value().plan, nullptr);
    auto single = db.Query(workload[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(concurrent[i].value().tuples, single.value().tuples);
  }
}

// Lazy cataloging: predictions are replaced by exact Describe() output
// once a structure is built.
TEST(RankCubeDbTest, CatalogUpgradesPredictionsToBuiltStats) {
  RankCubeDb db(SmallTable());
  for (const auto& entry : db.CatalogEntries()) {
    EXPECT_FALSE(entry.built) << entry.engine;
  }
  ASSERT_TRUE(db.Engine("grid").ok());
  bool found = false;
  for (const auto& entry : db.CatalogEntries()) {
    if (entry.engine == "grid") {
      found = true;
      EXPECT_TRUE(entry.built);
      EXPECT_GT(entry.size_bytes, 0u);
      EXPECT_GT(entry.cuboid_cells, 0u);
      EXPECT_EQ(entry.num_cuboids, 7);  // 2^3 - 1 cuboids over 3 dims
    }
  }
  EXPECT_TRUE(found);
}

// kLatency prices a page at 100 us and an exact evaluation at 0.05 us;
// kPages prices the pages alone. Both objectives see the same page
// estimates.
TEST(PlannerObjectiveTest, LatencyPricesPagesAndTuples) {
  RankCubeDb db(SmallTable());
  TopKQuery q = QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build();
  QueryOptions latency;
  latency.optimize_for = OptimizeFor::kLatency;
  auto by_time = db.Explain(q, latency);
  auto by_pages = db.Explain(q);
  ASSERT_TRUE(by_time.ok()) << by_time.status().ToString();
  ASSERT_TRUE(by_pages.ok()) << by_pages.status().ToString();
  const double rows = static_cast<double>(db.table().num_rows());
  size_t feasible = 0;
  for (const PlanCandidate& c : by_time.value().candidates) {
    if (!c.feasible) continue;
    SCOPED_TRACE(c.engine);
    ++feasible;
    // The CPU term: at most every row scored once per rank dimension.
    const double cpu_us = c.est_cost - 100.0 * c.est_pages;
    EXPECT_GE(cpu_us, 0.0);
    EXPECT_LE(cpu_us, 0.05 * rows * 2);
    // A scan scores every row of a predicate-free query.
    if (c.engine == "table_scan") {
      EXPECT_DOUBLE_EQ(cpu_us, 0.05 * rows);
    }
    for (const PlanCandidate& p : by_pages.value().candidates) {
      if (p.engine != c.engine) continue;
      EXPECT_EQ(p.est_pages, c.est_pages);
      EXPECT_EQ(p.est_cost, p.est_pages);
    }
  }
  EXPECT_GE(feasible, 6u);
}

// (d) The planner's routing envelope, on 6,000 rows of 8 selection dims
// from needle ids to binary flags, with the hot low-dimensional cuboids
// materialized. Nine query classes each favor a different structure. A
// static engine that rejects a query is charged that query's table_scan
// pages, the fallback a deployment hard-coded to that engine would take.
std::vector<TopKQuery> MixedWorkload(const Table& table) {
  Rng rng(4242);
  const int big_k = static_cast<int>(table.num_rows() / 6);
  // Predicates take their values from one random row, so none is empty.
  auto where = [&](std::initializer_list<int> dims) {
    QueryBuilder b;
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    for (int d : dims) b.Where(d, table.sel(row, d));
    return b;
  };
  std::vector<TopKQuery> out;
  auto add = [&](auto make) {
    for (int i = 0; i < 4; ++i) out.push_back(make());
  };
  add([&] { return where({0}).OrderByLinear({1, 1}).Limit(10).Build(); });
  add([&] { return where({1, 2}).OrderByLinear({2, 1}).Limit(10).Build(); });
  add([&] { return where({2, 3}).OrderByLinear({1, 3}).Limit(10).Build(); });
  add([&] { return where({3, 5, 6}).OrderByLinear({1, 1}).Limit(10).Build(); });
  add([&] { return where({6}).OrderByLinear({1, 2}).Limit(10).Build(); });
  add([&] {
    return where({4})
        .OrderByDistance({1, 1}, {rng.Uniform01(), rng.Uniform01()})
        .Limit(10)
        .Build();
  });
  add([&] {
    return QueryBuilder()
        .OrderByLinear({1.0 + rng.Uniform01(), 1.0})
        .Limit(10)
        .Build();
  });
  add([&] {
    return QueryBuilder()
        .OrderByLinear({1.0, 1.0 + rng.Uniform01()})
        .Limit(big_k)
        .Build();
  });
  add([&] {
    return where({7}).OrderByLinear({1, 1}).Limit(big_k / 2).Build();
  });
  return out;
}

TEST(PlannerEnvelopeTest, WithinFifteenPercentOfPerQueryBestEngine) {
  SyntheticSpec spec;
  spec.num_rows = 6000;
  spec.num_sel_dims = 8;
  spec.sel_cardinalities = {2000, 200, 20, 12, 8, 4, 2, 2};
  spec.num_rank_dims = 2;
  spec.seed = 7;
  RankCubeDb::Options options;
  for (int a = 0; a < 4; ++a) {
    options.build.grid.cuboid_dim_sets.push_back({a});
    for (int b = a + 1; b < 4; ++b) {
      options.build.grid.cuboid_dim_sets.push_back({a, b});
    }
  }
  options.build.grid.cuboid_dim_sets.push_back({0, 1, 2});
  options.build.grid.cuboid_dim_sets.push_back({1, 2, 3});
  RankCubeDb db(GenerateSynthetic(spec), options);
  const std::vector<TopKQuery> workload = MixedWorkload(db.table());

  // The raw cost model routes first; feedback learns afterwards.
  db.SetFeedbackEnabled(false);
  auto pages = [&](const TopKQuery& q, const std::string& engine) {
    QueryOptions opts;
    opts.force_engine = engine;
    auto r = db.Query(q, opts);
    return r.ok() ? static_cast<double>(r.value().stats.pages_read) : -1.0;
  };
  std::vector<double> scan;
  for (const TopKQuery& q : workload) {
    scan.push_back(pages(q, "table_scan"));
    ASSERT_GE(scan.back(), 0.0) << q.ToString();
  }
  std::vector<double> per_query_best = scan;
  double best_static = std::numeric_limits<double>::infinity();
  for (const char* engine :
       {"grid", "fragments", "signature", "table_scan", "boolean_first",
        "ranking_first", "index_merge"}) {
    double total = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      double p = pages(workload[i], engine);
      if (p < 0) p = scan[i];
      per_query_best[i] = std::min(per_query_best[i], p);
      total += p;
    }
    best_static = std::min(best_static, total);
  }
  // Geomean of estimated over measured pages, each floored at one page.
  auto routed_pass = [&](double* total, double* estimate_geomean) {
    double log_ratio = 0;
    *total = 0;
    for (const TopKQuery& q : workload) {
      auto r = db.Query(q);
      ASSERT_TRUE(r.ok()) << q.ToString() << ": " << r.status().ToString();
      const double measured = static_cast<double>(r.value().stats.pages_read);
      *total += measured;
      log_ratio += std::log(std::max(r.value().plan->estimated_pages, 1.0) /
                            std::max(measured, 1.0));
    }
    *estimate_geomean = std::exp(log_ratio / workload.size());
  };
  double planner = 0, raw_geomean = 0;
  routed_pass(&planner, &raw_geomean);
  double oracle = 0;
  for (double p : per_query_best) oracle += p;
  RecordProperty("planner_pages", std::to_string(planner));
  RecordProperty("per_query_best_pages", std::to_string(oracle));
  RecordProperty("best_static_pages", std::to_string(best_static));
  RecordProperty("estimate_geomean", std::to_string(raw_geomean));
  EXPECT_LE(planner, 1.15 * oracle);
  EXPECT_LT(planner, best_static);

  // One training pass with feedback on, then the same workload again.
  db.SetFeedbackEnabled(true);
  db.ResetFeedback();
  double trained = 0, post_geomean = 0;
  routed_pass(&trained, &post_geomean);
  routed_pass(&trained, &post_geomean);
  RecordProperty("post_feedback_estimate_geomean",
                 std::to_string(post_geomean));
  EXPECT_GE(post_geomean, 0.85);
  EXPECT_LE(post_geomean, 1.15);
}

}  // namespace
}  // namespace rankcube
