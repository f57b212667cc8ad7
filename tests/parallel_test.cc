// Concurrent-read parity: for every registered engine, a workload run on
// several test threads over one cached PageStore returns exactly the tuples
// sequential execution returns — engines are const and data-race free,
// per-query state lives in each query's IoSession, and the only
// cross-thread state is the PageStore's sharded cache. Run under
// ThreadSanitizer in CI (tsan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "gen/queries.h"
#include "gen/synthetic.h"

namespace rankcube {
namespace {

constexpr int kThreads = 4;

struct Fixture {
  Table table;
  // A small shared cache maximizes cross-thread contention on the store
  // (this is the TSan stress surface).
  PageStore store{{.page_size = 4096, .cache_pages = 256, .cache_shards = 4}};
  IoSession io{&store};

  Fixture() : table(MakeTable()) {}

  static Table MakeTable() {
    SyntheticSpec spec;
    spec.num_rows = 3000;
    spec.num_sel_dims = 3;
    spec.cardinality = 5;
    spec.num_rank_dims = 2;
    spec.seed = 99;
    return GenerateSynthetic(spec);
  }

  std::vector<TopKQuery> Workload(int num_predicates, int num_queries = 24) {
    QueryWorkloadSpec spec;
    spec.num_queries = num_queries;
    spec.num_predicates = num_predicates;
    spec.num_rank_used = 2;
    spec.k = 5;
    spec.seed = 1234;
    return GenerateQueries(table, spec);
  }
};

/// One query's outcome: its answer or error, and the pages charged to and
/// read from the device by its own session.
struct Outcome {
  Result<TopKResult> result = Status::Internal("not run");
  uint64_t charged = 0;
  uint64_t device = 0;
};

/// Runs `workload` on `threads` test threads that claim queries from a
/// shared cursor; each query runs in a fresh IoSession on `store`, with the
/// given per-query page budget and deadline (0 = none). Outcomes come back
/// in workload order.
std::vector<Outcome> RunOnThreads(const RankingEngine& engine,
                                  const std::vector<TopKQuery>& workload,
                                  const PageStore& store, int threads,
                                  uint64_t page_budget = 0,
                                  uint64_t deadline_ms = 0) {
  std::vector<Outcome> out(workload.size());
  std::atomic<size_t> cursor{0};
  auto loop = [&] {
    for (size_t i = cursor++; i < workload.size(); i = cursor++) {
      IoSession io(&store);
      ExecContext ctx;
      ctx.io = &io;
      ctx.page_budget = page_budget;
      if (deadline_ms > 0) {
        ctx.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms);
      }
      out[i].result = engine.Execute(workload[i], ctx);
      out[i].charged = io.TotalPhysical();
      out[i].device = io.TotalDevice();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(loop);
  for (std::thread& t : pool) t.join();
  return out;
}

size_t Failures(const std::vector<Outcome>& outcomes, Status::Code code) {
  size_t n = 0;
  for (const Outcome& o : outcomes) {
    if (!o.result.ok()) {
      EXPECT_EQ(o.result.status().code(), code) << o.result.status().ToString();
      ++n;
    }
  }
  return n;
}

TEST(ParallelParityTest, EveryEngineMatchesSequentialTupleForTuple) {
  Fixture fx;
  auto& registry = EngineRegistry::Global();

  for (const std::string& name : registry.Keys()) {
    SCOPED_TRACE("engine: " + name);
    auto engine = registry.Create(name, fx.table, fx.io);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    auto workload = fx.Workload((*engine)->SupportsPredicates() ? 2 : 0);
    ASSERT_FALSE(workload.empty());

    auto seq = RunOnThreads(**engine, workload, fx.store, 1);
    auto par = RunOnThreads(**engine, workload, fx.store, kThreads);
    for (size_t i = 0; i < workload.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + ": " +
                   workload[i].ToString());
      ASSERT_TRUE(seq[i].result.ok()) << seq[i].result.status().ToString();
      ASSERT_TRUE(par[i].result.ok()) << par[i].result.status().ToString();
      EXPECT_EQ(par[i].result.value().tuples, seq[i].result.value().tuples);
      // Logical work is deterministic; only device reads may shift between
      // schedules.
      EXPECT_EQ(par[i].result.value().stats.tuples_evaluated,
                seq[i].result.value().stats.tuples_evaluated);
    }
  }
}

TEST(ParallelParityTest, SharedCacheDoesNotChangeResults) {
  Fixture fx;
  auto engine = EngineRegistry::Global().Create("grid", fx.table, fx.io);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto workload = fx.Workload(2, 32);
  auto seq = RunOnThreads(**engine, workload, fx.store, 1);
  auto par = RunOnThreads(**engine, workload, fx.store, kThreads);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(seq[i].result.ok()) << seq[i].result.status().ToString();
    ASSERT_TRUE(par[i].result.ok()) << par[i].result.status().ToString();
    EXPECT_EQ(par[i].result.value().tuples, seq[i].result.value().tuples);
  }
}

TEST(ParallelParityTest, ReportMergesDeterministically) {
  Fixture fx;
  auto engine =
      EngineRegistry::Global().Create("table_scan", fx.table, fx.io);
  ASSERT_TRUE(engine.ok());

  auto workload = fx.Workload(1, 16);
  auto a = RunOnThreads(**engine, workload, fx.store, kThreads);
  auto b = RunOnThreads(**engine, workload, fx.store, kThreads);
  // Counters that do not depend on timing or cache state are identical
  // across runs and thread schedules.
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(a[i].result.ok()) << a[i].result.status().ToString();
    ASSERT_TRUE(b[i].result.ok()) << b[i].result.status().ToString();
    EXPECT_EQ(a[i].result.value().stats.tuples_evaluated,
              b[i].result.value().stats.tuples_evaluated);
    EXPECT_EQ(a[i].result.value().stats.pages_read,
              b[i].result.value().stats.pages_read);
    EXPECT_EQ(a[i].charged, b[i].charged);
  }
}

TEST(ParallelParityTest, PerQueryBudgetAppliesPerSession) {
  Fixture fx;
  auto engine =
      EngineRegistry::Global().Create("table_scan", fx.table, fx.io);
  ASSERT_TRUE(engine.ok());

  auto workload = fx.Workload(1, 8);
  // A 1-page budget fails every table_scan query, sequentially and in
  // parallel alike; budgets are charged against each query's own session,
  // not a shared global counter.
  for (int threads : {1, kThreads}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto out = RunOnThreads(**engine, workload, fx.store, threads,
                            /*page_budget=*/1);
    EXPECT_EQ(Failures(out, Status::Code::kOutOfRange), workload.size());
  }
}

TEST(ParallelParityTest, PageAttributionIsExactUnderSharedCache) {
  // With a shared cache, charged pages could depend on which thread warmed
  // which page first. Charged pages are metered against each session's
  // private accounting cache, so each query's count is identical across
  // thread counts and equal to the sequential run — even on a store whose
  // shared cache is hot, cold, or contended.
  Fixture fx;
  auto engine = EngineRegistry::Global().Create("grid", fx.table, fx.io);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto workload = fx.Workload(2, 32);
  auto seq = RunOnThreads(**engine, workload, fx.store, 1);
  uint64_t expected = 0;
  for (const Outcome& o : seq) {
    ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
    expected += o.charged;
  }
  EXPECT_GT(expected, 0u);

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto par = RunOnThreads(**engine, workload, fx.store, threads);
    uint64_t device = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(par[i].result.ok()) << par[i].result.status().ToString();
      EXPECT_EQ(par[i].charged, seq[i].charged) << workload[i].ToString();
      device += par[i].device;
    }
    // Device reads remain schedule-dependent, but never exceed the charged
    // total: the private accounting cache is seeded cold, the shared cache
    // may already be warm.
    EXPECT_LE(device, expected);
  }
}

TEST(ParallelParityTest, BudgetVerdictsAreScheduleIndependent) {
  // A budget chosen between two queries' charged footprints must fail the
  // same queries at every thread count. Under shared-cache attribution a
  // lucky schedule could squeeze an expensive query under budget; with
  // per-session accounting the verdict is a pure function of the query.
  Fixture fx;
  auto engine = EngineRegistry::Global().Create("grid", fx.table, fx.io);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto workload = fx.Workload(2, 24);
  // Find a budget that splits the workload: run unconstrained, take the
  // median per-query charged count.
  auto base = RunOnThreads(**engine, workload, fx.store, 1);
  std::vector<uint64_t> sorted;
  for (const Outcome& o : base) {
    ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
    sorted.push_back(o.charged);
  }
  std::sort(sorted.begin(), sorted.end());
  const uint64_t budget = sorted[sorted.size() / 2];

  // Which queries must fail is known in advance from the sequential run.
  size_t expected_failures = 0;
  for (const Outcome& o : base) {
    if (o.charged > budget) ++expected_failures;
  }
  ASSERT_GT(expected_failures, 0u);
  ASSERT_LT(expected_failures, workload.size());

  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto out = RunOnThreads(**engine, workload, fx.store, threads, budget);
    for (size_t i = 0; i < workload.size(); ++i) {
      EXPECT_EQ(out[i].result.ok(), base[i].charged <= budget)
          << workload[i].ToString();
    }
    EXPECT_EQ(Failures(out, Status::Code::kOutOfRange), expected_failures);
  }
}

TEST(ParallelParityTest, BatchDeadlineProducesTypedError) {
  Fixture fx;
  // Make every page cost real time so a 1-ms deadline reliably lapses
  // mid-query on a full scan.
  PageStore slow({.page_size = 4096, .read_latency_us = 500});
  IoSession build{&slow};
  auto engine =
      EngineRegistry::Global().Create("table_scan", fx.table, build);
  ASSERT_TRUE(engine.ok());

  auto workload = fx.Workload(1, 4);
  auto out = RunOnThreads(**engine, workload, slow, kThreads,
                          /*page_budget=*/0, /*deadline_ms=*/1);
  EXPECT_EQ(Failures(out, Status::Code::kDeadlineExceeded), workload.size());
}

}  // namespace
}  // namespace rankcube
