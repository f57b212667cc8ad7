// Planner + RankCubeDb facade tests:
//  (a) planner-routed execution is tuple-identical to every forced engine
//      (and to the table_scan oracle),
//  (b) the chosen engine shifts with selectivity, predicate count, k and
//      function shape in the directions the paper's block-access analysis
//      predicts,
//  (c) force_engine and unplannable queries fail with clean Statuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace rankcube
