// Unit tests for the unified engine layer: registry lookup, QueryBuilder,
// shared validation (identical Status across engines for malformed queries),
// page budgets and ExecStats accumulation.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/builtin_engines.h"
#include "engine/query_builder.h"
#include "engine/registry.h"
#include "gen/synthetic.h"

namespace rankcube {
namespace {

Table SmallTable() {
  SyntheticSpec spec;
  spec.num_rows = 1500;
  spec.num_sel_dims = 3;
  spec.cardinality = 5;
  spec.num_rank_dims = 2;
  spec.seed = 11;
  return GenerateSynthetic(spec);
}

TEST(EngineRegistryTest, BuiltinsAreRegistered) {
  auto& registry = EngineRegistry::Global();
  for (const char* name :
       {"grid", "fragments", "signature", "signature_lossy", "table_scan",
        "boolean_first", "ranking_first", "rank_mapping", "index_merge"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_GE(registry.Keys().size(), 9u);
}

TEST(EngineRegistryTest, UnknownEngineIsNotFound) {
  Table table = SmallTable();
  PageStore store;
  IoSession io{&store};
  auto r = EngineRegistry::Global().Create("no_such_engine", table, io);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  // The error names every registered key: lookups are composed
  // programmatically (planner catalogs, CLI flags), and "what exists" is
  // the answer such callers need.
  for (const std::string& name : EngineRegistry::Global().Keys()) {
    EXPECT_NE(r.status().message().find(name), std::string::npos)
        << r.status().message();
  }
}

TEST(EngineRegistryTest, DuplicateRegistrationFails) {
  auto& registry = EngineRegistry::Global();
  Status s = registry.Register(
      "table_scan", [](const Table& table, IoSession&,
                       const EngineBuildOptions&)
                        -> Result<std::unique_ptr<RankingEngine>> {
        return MakeTableScanEngine(table);
      });
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(QueryBuilderTest, BuildsTheQueryModel) {
  TopKQuery q = QueryBuilder()
                    .Where(0, 3)
                    .Where(2, 1)
                    .OrderByLinear({1.0, 2.0})
                    .Limit(25)
                    .Build();
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_EQ(q.predicates[0], (Predicate{0, 3}));
  EXPECT_EQ(q.predicates[1], (Predicate{2, 1}));
  EXPECT_EQ(q.k, 25);
  ASSERT_NE(q.function, nullptr);
  std::vector<double> p{0.5, 0.25};
  EXPECT_DOUBLE_EQ(q.function->Evaluate(p.data()), 1.0);
}

TEST(QueryBuilderTest, OrderByL1BuildsTheL1Distance) {
  TopKQuery q = QueryBuilder()
                    .OrderByL1({2.0, 0.0}, {0.5, 0.0})
                    .Limit(3)
                    .Build();
  ASSERT_NE(q.function, nullptr);
  std::vector<double> at_target{0.5, 0.9};
  EXPECT_DOUBLE_EQ(q.function->Evaluate(at_target.data()), 0.0);
  std::vector<double> off_target{0.75, 0.9};
  EXPECT_DOUBLE_EQ(q.function->Evaluate(off_target.data()), 0.5);
  EXPECT_TRUE(q.function->convex());
}

TEST(QueryBuilderTest, BuildValidatedAcceptsAndRejectsBeforePlanning) {
  Table table = SmallTable();
  const auto& schema = table.schema();

  auto ok = QueryBuilder()
                .Where(0, 1)
                .OrderByL1({1.0, 1.0}, {0.2, 0.8})
                .Limit(5)
                .BuildValidated(schema);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().predicates.size(), 1u);
  EXPECT_EQ(ok.value().k, 5);

  // Same malformed builds ValidateQuery rejects inside Execute, rejected
  // up front with the identical code.
  auto bad_value =
      QueryBuilder().Where(0, 99).OrderByLinear({1, 1}).BuildValidated(schema);
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), Status::Code::kInvalidArgument);

  auto no_fn = QueryBuilder().Where(0, 1).Limit(5).BuildValidated(schema);
  ASSERT_FALSE(no_fn.ok());
  EXPECT_EQ(no_fn.status().code(), Status::Code::kInvalidArgument);

  auto bad_k =
      QueryBuilder().OrderByLinear({1, 1}).Limit(0).BuildValidated(schema);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), Status::Code::kInvalidArgument);
}

TEST(ValidateQueryTest, RejectsMalformedQueries) {
  Table table = SmallTable();
  const auto& schema = table.schema();

  auto ok = QueryBuilder().Where(0, 1).OrderByLinear({1, 1}).Limit(5).Build();
  EXPECT_TRUE(ValidateQuery(ok, schema).ok());

  auto bad_k = QueryBuilder().OrderByLinear({1, 1}).Limit(0).Build();
  EXPECT_EQ(ValidateQuery(bad_k, schema).code(),
            Status::Code::kInvalidArgument);

  auto no_fn = QueryBuilder().Where(0, 1).Limit(5).Build();
  EXPECT_EQ(ValidateQuery(no_fn, schema).code(),
            Status::Code::kInvalidArgument);

  auto bad_dim =
      QueryBuilder().Where(9, 0).OrderByLinear({1, 1}).Limit(5).Build();
  EXPECT_EQ(ValidateQuery(bad_dim, schema).code(),
            Status::Code::kInvalidArgument);

  auto bad_value =
      QueryBuilder().Where(0, 99).OrderByLinear({1, 1}).Limit(5).Build();
  EXPECT_EQ(ValidateQuery(bad_value, schema).code(),
            Status::Code::kInvalidArgument);

  auto dup = QueryBuilder()
                 .Where(1, 0)
                 .Where(1, 2)
                 .OrderByLinear({1, 1})
                 .Limit(5)
                 .Build();
  EXPECT_EQ(ValidateQuery(dup, schema).code(),
            Status::Code::kInvalidArgument);

  auto wrong_dims =
      QueryBuilder().OrderByLinear({1, 1, 1}).Limit(5).Build();
  EXPECT_EQ(ValidateQuery(wrong_dims, schema).code(),
            Status::Code::kInvalidArgument);
}

// The error-consistency contract: a malformed query fails with the same
// Status code on every registered engine — the seed's baselines used to
// return silently empty vectors instead.
TEST(EngineExecuteTest, MalformedQueryFailsIdenticallyOnEveryEngine) {
  Table table = SmallTable();
  PageStore store;
  IoSession io{&store};
  auto malformed =
      QueryBuilder().Where(0, 999).OrderByLinear({1, 1}).Limit(5).Build();

  for (const std::string& name : EngineRegistry::Global().Keys()) {
    SCOPED_TRACE(name);
    auto engine = EngineRegistry::Global().Create(name, table, io);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ExecContext ctx;
    ctx.io = &io;
    auto r = (*engine)->Execute(malformed, ctx);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
}

TEST(EngineExecuteTest, PredicatesRejectedWhenUnsupported) {
  Table table = SmallTable();
  PageStore store;
  IoSession io{&store};
  auto engine = EngineRegistry::Global().Create("index_merge", table, io);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE((*engine)->SupportsPredicates());

  ExecContext ctx;
  ctx.io = &io;
  auto q = QueryBuilder().Where(0, 1).OrderByLinear({1, 1}).Limit(5).Build();
  auto r = (*engine)->Execute(q, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotSupported);

  auto no_preds = QueryBuilder().OrderByLinear({1, 1}).Limit(5).Build();
  EXPECT_TRUE((*engine)->Execute(no_preds, ctx).ok());
}

TEST(EngineExecuteTest, MissingSessionIsInvalidArgument) {
  Table table = SmallTable();
  PageStore store;
  IoSession io{&store};
  auto engine = EngineRegistry::Global().Create("table_scan", table, io);
  ASSERT_TRUE(engine.ok());
  ExecContext ctx;  // no I/O session
  auto q = QueryBuilder().OrderByLinear({1, 1}).Limit(5).Build();
  auto r = (*engine)->Execute(q, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
}

TEST(EngineExecuteTest, PageBudgetIsEnforced) {
  Table table = SmallTable();
  PageStore store;
  IoSession io{&store};
  auto engine = EngineRegistry::Global().Create("table_scan", table, io);
  ASSERT_TRUE(engine.ok());
  auto q = QueryBuilder().OrderByLinear({1, 1}).Limit(5).Build();

  ExecContext tight;
  tight.io = &io;
  tight.page_budget = 1;  // a full scan reads far more than one page
  auto r = (*engine)->Execute(q, tight);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kOutOfRange);

  ExecContext roomy;
  roomy.io = &io;
  roomy.page_budget = 1u << 20;
  EXPECT_TRUE((*engine)->Execute(q, roomy).ok());
}

TEST(ExecStatsTest, PlusEqualsAccumulatesEveryCounter) {
  ExecStats a;
  a.time_ms = 1.5;
  a.pages_read = 10;
  a.tuples_evaluated = 3;
  a.states_generated = 7;
  a.states_examined = 5;
  a.peak_heap = 4;
  a.signature_pages = 2;
  a.signature_ms = 0.25;

  ExecStats b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.time_ms, 3.0);
  EXPECT_EQ(b.pages_read, 20u);
  EXPECT_EQ(b.tuples_evaluated, 6u);
  EXPECT_EQ(b.states_generated, 14u);
  EXPECT_EQ(b.states_examined, 10u);
  EXPECT_EQ(b.peak_heap, 8u);
  EXPECT_EQ(b.signature_pages, 4u);
  EXPECT_DOUBLE_EQ(b.signature_ms, 0.5);
}

}  // namespace
}  // namespace rankcube
