// Engine-parity suite: every engine in the EngineRegistry answers a shared
// generated workload through the one polymorphic interface, and each result
// set must match two oracles tuple-for-tuple: the table_scan engine, and
// BruteForceTopK, which scores with the scalar Evaluate and shares no code
// with the kernels, FusedScorer or OfferBatch the engines run. This is the
// executable form of the thesis's interchangeability claim.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/registry.h"
#include "gen/queries.h"
#include "gen/synthetic.h"

namespace rankcube {
namespace {

struct Fixture {
  Table table;
  PageStore store;
  IoSession io{&store};

  Fixture() : table(MakeTable()) {}

  static Table MakeTable() {
    SyntheticSpec spec;
    spec.num_rows = 4000;
    spec.num_sel_dims = 3;
    spec.cardinality = 6;
    spec.num_rank_dims = 2;
    spec.seed = 77;
    return GenerateSynthetic(spec);
  }

  std::vector<TopKQuery> Workload(int num_predicates) {
    QueryWorkloadSpec spec;
    spec.num_queries = 8;
    spec.num_predicates = num_predicates;
    spec.num_rank_used = 2;
    spec.k = 7;
    spec.seed = 4242;
    return GenerateQueries(table, spec);
  }

  /// Constrained-sum queries (N0 + N1 gated on N1 in a band) whose band
  /// most rows miss, so fewer than k rows score finitely; one band misses
  /// every row, and one passes plenty.
  std::vector<TopKQuery> GatedWorkload(bool with_predicates) {
    Rng rng(2024);
    std::vector<TopKQuery> out;
    const double width = with_predicates ? 0.05 : 0.002;
    for (int q = 0; q < 10; ++q) {
      TopKQuery query;
      query.k = 25;
      double lo = rng.Uniform(0.0, 0.95);
      double hi = lo + width;
      if (q == 0) lo = hi = 1.5;  // outside the data: an empty answer
      if (q == 1) hi = lo + 0.4;  // a band more than k rows pass
      query.function = std::make_shared<ConstrainedSum>(2, 0, 1, lo, hi);
      if (with_predicates) {
        query.predicates = {{0, static_cast<int32_t>(rng.UniformInt(6))},
                            {2, static_cast<int32_t>(rng.UniformInt(6))}};
      }
      out.push_back(std::move(query));
    }
    return out;
  }
};

TEST(EngineParityTest, EveryRegisteredEngineMatchesTableScanOracle) {
  Fixture fx;
  auto& registry = EngineRegistry::Global();

  auto oracle_engine = registry.Create("table_scan", fx.table, fx.io);
  ASSERT_TRUE(oracle_engine.ok()) << oracle_engine.status().ToString();

  for (const std::string& name : registry.Keys()) {
    SCOPED_TRACE("engine: " + name);
    auto engine = registry.Create(name, fx.table, fx.io);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    // Engines without boolean-predicate support (index_merge) get the same
    // workload minus selections; the oracle sees identical queries either
    // way, so results must still agree tuple-for-tuple.
    auto workload =
        fx.Workload((*engine)->SupportsPredicates() ? 2 : 0);
    ASSERT_FALSE(workload.empty());

    for (const TopKQuery& query : workload) {
      SCOPED_TRACE(query.ToString());
      ExecContext ctx;
      ctx.io = &fx.io;
      auto got = (*engine)->Execute(query, ctx);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = (*oracle_engine)->Execute(query, ctx);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got.value().tuples, want.value().tuples);
      EXPECT_EQ(got.value().tuples, BruteForceTopK(fx.table, query));
    }
  }
}

TEST(EngineParityTest, GatedQueriesFewerThanKPassMatchBruteForce) {
  // A tuple the gate excludes scores +inf and is no answer: when fewer
  // than k rows pass the gate, every engine returns only those rows.
  Fixture fx;
  auto& registry = EngineRegistry::Global();
  size_t short_answers = 0;
  for (const std::string& name : registry.Keys()) {
    SCOPED_TRACE("engine: " + name);
    auto engine = registry.Create(name, fx.table, fx.io);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const TopKQuery& query :
         fx.GatedWorkload((*engine)->SupportsPredicates())) {
      SCOPED_TRACE(query.ToString());
      ExecContext ctx;
      ctx.io = &fx.io;
      auto got = (*engine)->Execute(query, ctx);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<ScoredTuple> want = BruteForceTopK(fx.table, query);
      EXPECT_EQ(got.value().tuples, want);
      short_answers += want.size() < static_cast<size_t>(query.k);
    }
  }
  EXPECT_GT(short_answers, registry.Keys().size());
}

TEST(EngineParityTest, FusedKernelsOnAndOffAreTupleIdentical) {
  // The fused-kernel dispatch (RANKCUBE_FUSED_KERNELS) is read when an
  // engine constructs its scorers, so flipping the environment between
  // sequential executions exercises both code paths; results must be
  // tuple-identical, not merely score-close.
  Fixture fx;
  auto& registry = EngineRegistry::Global();
  for (const std::string& name : registry.Keys()) {
    SCOPED_TRACE("engine: " + name);
    auto engine = registry.Create(name, fx.table, fx.io);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto workload = fx.Workload((*engine)->SupportsPredicates() ? 2 : 0);
    for (const TopKQuery& query : workload) {
      SCOPED_TRACE(query.ToString());
      ExecContext ctx;
      ctx.io = &fx.io;
      auto fused = (*engine)->Execute(query, ctx);
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      ASSERT_EQ(setenv("RANKCUBE_FUSED_KERNELS", "0", 1), 0);
      auto generic = (*engine)->Execute(query, ctx);
      ASSERT_EQ(unsetenv("RANKCUBE_FUSED_KERNELS"), 0);
      ASSERT_TRUE(generic.ok()) << generic.status().ToString();
      EXPECT_EQ(fused.value().tuples, generic.value().tuples);
    }
  }
}

}  // namespace
}  // namespace rankcube
