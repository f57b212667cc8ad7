#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "storage/io_session.h"
#include "storage/table.h"

namespace rankcube {
namespace {

TEST(IoSessionTest, CountsPerCategory) {
  PageStore store;
  IoSession io{&store};
  io.Access(IoCategory::kRTree, 1);
  io.Access(IoCategory::kRTree, 2);
  io.Access(IoCategory::kSignature, 9);
  EXPECT_EQ(io.stats(IoCategory::kRTree).physical, 2u);
  EXPECT_EQ(io.stats(IoCategory::kSignature).physical, 1u);
  EXPECT_EQ(io.TotalPhysical(), 3u);
  io.ResetStats();
  EXPECT_EQ(io.TotalPhysical(), 0u);
}

TEST(IoSessionTest, CacheAbsorbsRepeatedReads) {
  PageStore store({.page_size = 4096, .cache_pages = 8});
  IoSession io{&store};
  for (int i = 0; i < 5; ++i) io.Access(IoCategory::kBTree, 42);
  EXPECT_EQ(io.stats(IoCategory::kBTree).logical, 5u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).hits(), 4u);
}

TEST(IoSessionTest, CacheEvictsLru) {
  // One shard = the classic global LRU: eviction order is exactly
  // least-recently-used across all keys.
  PageStore store({.page_size = 4096, .cache_pages = 2, .cache_shards = 1});
  IoSession io{&store};
  io.Access(IoCategory::kBTree, 1);
  io.Access(IoCategory::kBTree, 2);
  io.Access(IoCategory::kBTree, 3);  // evicts 1
  io.Access(IoCategory::kBTree, 1);  // miss again, evicts 2
  EXPECT_EQ(io.stats(IoCategory::kBTree).physical, 4u);
  io.Access(IoCategory::kBTree, 3);  // still resident
  io.Access(IoCategory::kBTree, 1);  // still resident
  EXPECT_EQ(io.stats(IoCategory::kBTree).physical, 4u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).hits(), 2u);
}

TEST(IoSessionTest, LruRefreshOnHit) {
  PageStore store({.page_size = 4096, .cache_pages = 2, .cache_shards = 1});
  IoSession io{&store};
  io.Access(IoCategory::kBTree, 1);
  io.Access(IoCategory::kBTree, 2);
  io.Access(IoCategory::kBTree, 1);  // hit: 1 becomes most recent
  io.Access(IoCategory::kBTree, 3);  // evicts 2, not 1
  io.Access(IoCategory::kBTree, 1);  // hit
  EXPECT_EQ(io.stats(IoCategory::kBTree).physical, 3u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).hits(), 2u);
}

TEST(IoSessionTest, MultiPageReadsBypassCache) {
  PageStore store({.page_size = 4096, .cache_pages = 8});
  IoSession io{&store};
  io.Access(IoCategory::kTable, 0, 10);
  io.Access(IoCategory::kTable, 0, 10);
  EXPECT_EQ(io.stats(IoCategory::kTable).physical, 20u);
  EXPECT_EQ(io.stats(IoCategory::kTable).hits(), 0u);
}

TEST(IoSessionTest, CategoriesDoNotCollideInCache) {
  PageStore store({.page_size = 4096, .cache_pages = 8});
  IoSession io{&store};
  io.Access(IoCategory::kBTree, 7);
  io.Access(IoCategory::kRTree, 7);
  EXPECT_EQ(io.TotalPhysical(), 2u);
}

TEST(IoSessionTest, HitMissAccountingIsPerCategory) {
  PageStore store({.page_size = 4096, .cache_pages = 16});
  IoSession io{&store};
  io.Access(IoCategory::kBTree, 1);   // miss
  io.Access(IoCategory::kBTree, 1);   // hit
  io.Access(IoCategory::kCuboid, 5);  // miss
  io.Access(IoCategory::kCuboid, 5);  // hit
  io.Access(IoCategory::kCuboid, 5);  // hit
  EXPECT_EQ(io.stats(IoCategory::kBTree).logical, 2u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(io.stats(IoCategory::kBTree).hits(), 1u);
  EXPECT_EQ(io.stats(IoCategory::kCuboid).logical, 3u);
  EXPECT_EQ(io.stats(IoCategory::kCuboid).physical, 1u);
  EXPECT_EQ(io.stats(IoCategory::kCuboid).hits(), 2u);
  EXPECT_EQ(io.TotalLogical(), 5u);
  EXPECT_EQ(io.TotalPhysical(), 2u);
}

TEST(IoSessionTest, SessionsShareTheStoreCacheForDeviceReadsOnly) {
  // The shared cache decides *device* reads (b's second access of page 7 is
  // a device hit another session warmed). Charged `physical` pages are
  // metered per session, so b still pays for its own first touch — the
  // attribution that makes per-query budgets schedule-independent.
  PageStore store({.page_size = 4096, .cache_pages = 8});
  IoSession a{&store};
  IoSession b{&store};
  a.Access(IoCategory::kBTree, 7);  // miss everywhere, admits the page
  b.Access(IoCategory::kBTree, 7);  // device hit, charged miss
  EXPECT_EQ(a.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(a.stats(IoCategory::kBTree).device, 1u);
  EXPECT_EQ(b.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(b.stats(IoCategory::kBTree).device, 0u);
  EXPECT_EQ(b.stats(IoCategory::kBTree).device_hits(), 1u);

  b.Access(IoCategory::kBTree, 7);  // now a hit in b's own accounting cache
  EXPECT_EQ(b.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(b.stats(IoCategory::kBTree).hits(), 1u);

  store.ClearCache();  // clears the shared cache, not session accounting
  b.Access(IoCategory::kBTree, 7);  // device-cold again, still charged-warm
  EXPECT_EQ(b.stats(IoCategory::kBTree).physical, 1u);
  EXPECT_EQ(b.stats(IoCategory::kBTree).device, 1u);
}

TEST(PageStoreTest, ConcurrentSessionsCountExactly) {
  // Many threads hammer one shared store, each through its own session;
  // session counters must be exact (logical is untouched by cache races)
  // and the run must be clean under ThreadSanitizer.
  PageStore store({.page_size = 4096, .cache_pages = 64, .cache_shards = 8});
  constexpr int kThreads = 8;
  constexpr int kAccesses = 2000;
  std::vector<IoSession> sessions(kThreads, IoSession(&store));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAccesses; ++i) {
        sessions[t].Access(IoCategory::kRTree,
                           static_cast<uint64_t>(i % 128));
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t logical = 0;
  for (const auto& s : sessions) logical += s.TotalLogical();
  EXPECT_EQ(logical, static_cast<uint64_t>(kThreads) * kAccesses);
  for (const auto& s : sessions) {
    EXPECT_LE(s.TotalPhysical(), s.TotalLogical());
  }
}

Table MakeTable() {
  TableSchema schema;
  schema.sel_cardinality = {4, 3};
  schema.num_rank_dims = 2;
  Table t(schema);
  EXPECT_TRUE(t.AddRow({1, 2}, {0.5, 0.25}).ok());
  EXPECT_TRUE(t.AddRow({3, 0}, {0.1, 0.9}).ok());
  return t;
}

TEST(TableTest, StoresValues) {
  Table t = MakeTable();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.sel(0, 0), 1);
  EXPECT_EQ(t.sel(1, 1), 0);
  EXPECT_DOUBLE_EQ(t.rank(0, 1), 0.25);
  std::vector<double> row(t.num_rank_dims());
  t.CopyRankRow(1, row.data());
  EXPECT_EQ(row, (std::vector<double>{0.1, 0.9}));
}

TEST(TableTest, RejectsBadRows) {
  Table t = MakeTable();
  EXPECT_FALSE(t.AddRow({1}, {0.0, 0.0}).ok());        // wrong sel arity
  EXPECT_FALSE(t.AddRow({1, 2}, {0.0}).ok());          // wrong rank arity
  EXPECT_FALSE(t.AddRow({9, 0}, {0.0, 0.0}).ok());     // out of domain
  EXPECT_FALSE(t.AddRow({-1, 0}, {0.0, 0.0}).ok());    // negative
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RejectsRankOutsideUnitInterval) {
  Table t = MakeTable();
  EXPECT_EQ(t.AddRow({1, 2}, {1.5, 0.0}).code(), Status::Code::kOutOfRange);
  EXPECT_EQ(t.AddRow({1, 2}, {0.0, -0.1}).code(), Status::Code::kOutOfRange);
  double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(t.AddRow({1, 2}, {nan, 0.0}).code(), Status::Code::kOutOfRange);
  // The closed boundaries are legal.
  EXPECT_TRUE(t.AddRow({1, 2}, {0.0, 1.0}).ok());
}

TEST(TableTest, RejectedRowLeavesNoPartialAppend) {
  Table t = MakeTable();
  // Dimension 0 is valid, dimension 1 is out of domain: the row must be
  // rejected without leaking the already-validated column value.
  EXPECT_FALSE(t.AddRow({1, 99}, {0.0, 0.0}).ok());
  EXPECT_FALSE(t.AddRow({1, 2}, {0.5, 7.0}).ok());
  ASSERT_EQ(t.num_rows(), 2u);
  ASSERT_TRUE(t.AddRow({2, 1}, {0.25, 0.75}).ok());
  // A partial append would have shifted this row's column values.
  EXPECT_EQ(t.sel(2, 0), 2);
  EXPECT_EQ(t.sel(2, 1), 1);
  EXPECT_DOUBLE_EQ(t.rank(2, 0), 0.25);
}

TEST(TableTest, InsertDeleteAdvanceEpochAndLog) {
  Table t = MakeTable();
  EXPECT_EQ(t.epoch(), 0u);  // bulk load does not log
  auto tid = t.Insert({0, 0}, {0.3, 0.3});
  ASSERT_TRUE(tid.ok());
  EXPECT_EQ(tid.value(), 2u);
  EXPECT_EQ(t.epoch(), 1u);
  ASSERT_TRUE(t.Delete(0).ok());
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_FALSE(t.is_live(0));
  EXPECT_TRUE(t.is_live(1));
  EXPECT_EQ(t.num_rows(), 3u);   // tombstone stays in the heap
  EXPECT_EQ(t.num_live(), 2u);

  // Error paths: invalid insert is not logged; double delete and
  // out-of-range delete fail.
  EXPECT_FALSE(t.Insert({0, 0}, {2.0, 0.0}).ok());
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.Delete(0).code(), Status::Code::kNotFound);
  EXPECT_EQ(t.Delete(99).code(), Status::Code::kInvalidArgument);

  std::vector<Tid> ins, del;
  t.delta().ChangesSince(0, &ins, &del);
  EXPECT_EQ(ins, (std::vector<Tid>{2}));
  EXPECT_EQ(del, (std::vector<Tid>{0}));
  // Suffix after the insert: only the delete remains.
  t.delta().ChangesSince(1, &ins, &del);
  EXPECT_TRUE(ins.empty());
  EXPECT_EQ(del, (std::vector<Tid>{0}));
}

TEST(DeltaStoreTest, TruncateKeepsTombstonesAndRebasesEpochs) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({0, 0}, {0.1, 0.1}).ok());
  ASSERT_TRUE(t.Delete(1).ok());
  EXPECT_EQ(t.delta().log_size(), 2u);

  t.MarkCompacted();
  EXPECT_EQ(t.epoch(), 2u);  // epochs keep counting across compactions
  EXPECT_EQ(t.delta().compacted_epoch(), 2u);
  EXPECT_EQ(t.delta().log_size(), 0u);
  EXPECT_FALSE(t.is_live(1));             // tombstone survives
  EXPECT_EQ(t.delta().num_deleted(), 1u);

  std::vector<Tid> ins, del;
  t.delta().ChangesSince(0, &ins, &del);  // clamped to the compacted epoch
  EXPECT_TRUE(ins.empty());
  EXPECT_TRUE(del.empty());

  ASSERT_TRUE(t.Insert({1, 1}, {0.2, 0.2}).ok());
  EXPECT_EQ(t.epoch(), 3u);
  t.delta().ChangesSince(2, &ins, &del);
  EXPECT_EQ(ins, (std::vector<Tid>{3}));
  EXPECT_EQ(t.delta().InsertsSince(2), 1u);
  EXPECT_EQ(t.delta().DeletesSince(2), 0u);
}

TEST(TableTest, TailScanChargesOnlyDeltaPages) {
  TableSchema schema;
  schema.sel_cardinality = {2};
  schema.num_rank_dims = 1;
  Table t(schema);  // row = 4 + 4 + 8 = 16 bytes -> 256 rows/page
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(t.AddRow({0}, {0.5}).ok());
  }
  Tid first_delta = static_cast<Tid>(t.num_rows());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({1}, {0.5}).ok());
  }
  PageStore store;
  IoSession io{&store};
  EXPECT_EQ(t.NumPages(io.page_size()), 3u);  // 610 rows / 256
  EXPECT_EQ(t.TailPages(first_delta, io.page_size()), 1u);
  t.ChargeTailScan(&io, first_delta);
  EXPECT_EQ(io.stats(IoCategory::kTable).physical, 1u);
  // Empty tail charges nothing.
  t.ChargeTailScan(&io, static_cast<Tid>(t.num_rows()));
  EXPECT_EQ(io.stats(IoCategory::kTable).physical, 1u);
}

TEST(TableTest, PageAccounting) {
  Table t = MakeTable();
  PageStore store;
  IoSession io{&store};
  // Row = 4 + 4*2 + 8*2 = 28 bytes -> 146 rows / 4KB page.
  EXPECT_EQ(t.RowBytes(), 28u);
  EXPECT_EQ(t.RowsPerPage(io.page_size()), 146u);
  EXPECT_EQ(t.NumPages(io.page_size()), 1u);
  t.ChargeFullScan(&io);
  EXPECT_EQ(io.stats(IoCategory::kTable).physical, 1u);
  t.ChargeRowFetch(&io, 0);
  EXPECT_EQ(io.stats(IoCategory::kTable).physical, 2u);
}

}  // namespace
}  // namespace rankcube
