// Partitioned ranking-cube tests. The contract under test:
//  (a) scatter-gather top-k is tuple-identical to one unpartitioned db
//      holding the union of the rows — for every engine, every partition
//      count, boundary-straddling queries, and partitions mid-maintenance
//      (un-compacted delta overlays);
//  (b) the scatter prunes: predicate ∩ partition bounds drops partitions
//      before planning, and the S_k threshold stops the gather early —
//      without ever changing an answer;
//  (c) DropPartition is O(1) in partition size (a manifest commit, no page
//      I/O proportional to the data), concurrent queries see every
//      partition in full or not at all, and a kill -9 at any filesystem op
//      across a multi-partition data_dir never loses an acked write;
//  (d) per-partition durability counters (WAL records since checkpoint,
//      checkpoint generation, backing reads) surface through Stats, and the
//      PARTITION_* wire verbs round-trip end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/query_builder.h"
#include "gen/synthetic.h"
#include "partition/partition_manifest.h"
#include "partition/partitioned_db.h"
#include "planner/rank_cube_db.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault_fs.h"

namespace rankcube {
namespace {

// ---------------------------------------------------------------------------
// Harness: a partitioned db and its unpartitioned oracle over the same rows.
//
// Seed tables are concatenated into the oracle in partition-creation order,
// so a row's global oracle tid is offset[partition seq] + local tid — which
// also makes the merge tie-break (score, seq, tid) agree with the oracle's
// (score, tid) whenever scores are distinct.

constexpr int32_t kPartitionDomain = 16;  ///< cardinality of the routing dim

TableSchema TestSchema() {
  TableSchema schema;
  schema.sel_cardinality = {kPartitionDomain, 6, 4};
  schema.num_rank_dims = 2;
  return schema;
}

/// Splits [0, kPartitionDomain) into `n` near-equal half-open ranges.
std::vector<PartitionRange> SplitRanges(int n) {
  std::vector<PartitionRange> out;
  int32_t lo = 0;
  for (int i = 0; i < n; ++i) {
    int32_t hi = static_cast<int32_t>((kPartitionDomain * (i + 1)) / n);
    out.push_back({lo, hi});
    lo = hi;
  }
  return out;
}

struct Pair {
  std::unique_ptr<PartitionedDb> pdb;
  std::unique_ptr<RankCubeDb> oracle;
  std::vector<std::string> names;  ///< creation order
  /// (partition name, local tid) -> oracle tid; extended by InsertBoth.
  std::map<std::pair<std::string, Tid>, Tid> to_global;
};

Pair MakePair(int num_partitions, uint64_t rows, int scatter_threads = 4) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = 3;
  spec.sel_cardinalities = {kPartitionDomain, 6, 4};
  spec.num_rank_dims = 2;
  spec.seed = 123;
  Table base = GenerateSynthetic(spec);

  PartitionedDb::Options popts;
  popts.schema = TestSchema();
  popts.partition_dim = 0;
  popts.scatter_threads = scatter_threads;
  Pair pair;
  pair.pdb = PartitionedDb::Open(std::move(popts)).value();

  Table oracle_table(TestSchema());
  std::vector<int32_t> sel(3);
  std::vector<double> rank(2);
  std::vector<PartitionRange> ranges = SplitRanges(num_partitions);
  for (size_t p = 0; p < ranges.size(); ++p) {
    std::string name = "p" + std::to_string(p);
    Table seed(TestSchema());
    for (Tid row = 0; row < static_cast<Tid>(base.num_rows()); ++row) {
      if (!ranges[p].Contains(base.sel(row, 0))) continue;
      for (int d = 0; d < 3; ++d) sel[d] = base.sel(row, d);
      for (int d = 0; d < 2; ++d) rank[d] = base.rank(row, d);
      pair.to_global[{name, static_cast<Tid>(seed.num_rows())}] =
          static_cast<Tid>(oracle_table.num_rows());
      EXPECT_TRUE(seed.AddRow(sel, rank).ok());
      EXPECT_TRUE(oracle_table.AddRow(sel, rank).ok());
    }
    Status s = pair.pdb->CreatePartition(name, ranges[p], std::move(seed));
    EXPECT_TRUE(s.ok()) << s.ToString();
    pair.names.push_back(name);
  }
  pair.oracle = std::make_unique<RankCubeDb>(std::move(oracle_table));
  return pair;
}

/// Routes one row through both sides and records the tid mapping.
void InsertBoth(Pair* pair, const std::vector<int32_t>& sel,
                const std::vector<double>& rank) {
  auto ref = pair->pdb->Insert(sel, rank);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto global = pair->oracle->Insert(sel, rank);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  pair->to_global[{ref.value().partition, ref.value().tid}] = global.value();
}

/// Maps a scatter answer onto oracle tids (fails the test on an unknown
/// (partition, tid) — that would mean the scatter invented a row).
std::vector<ScoredTuple> ToGlobal(const Pair& pair,
                                  const PartitionedTopK& top) {
  std::vector<ScoredTuple> out;
  for (const PartitionedTuple& t : top.tuples) {
    auto it = pair.to_global.find({t.partition, t.tid});
    EXPECT_NE(it, pair.to_global.end())
        << "unknown row " << t.partition << "/" << t.tid;
    if (it == pair.to_global.end()) continue;
    out.push_back({it->second, t.score});
  }
  return out;
}

std::vector<ScoredTuple> OracleAnswer(const Pair& pair, const TopKQuery& q) {
  QueryOptions opts;
  opts.force_engine = "table_scan";
  auto r = pair.oracle->Query(q, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.value().tuples : std::vector<ScoredTuple>{};
}

/// Boundary-straddling workload: predicates on NON-partition dims (every
/// query's answer set crosses partition boundaries), plus a no-predicate
/// query and one k larger than any single partition.
std::vector<TopKQuery> StraddlingQueries() {
  std::vector<TopKQuery> qs;
  qs.push_back(QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(10).Build());
  qs.push_back(QueryBuilder()
                   .Where(1, 3)
                   .OrderByLinear({1.0, 2.0})
                   .Limit(7)
                   .Build());
  qs.push_back(QueryBuilder()
                   .Where(1, 2)
                   .Where(2, 1)
                   .OrderByDistance({1.0, 1.0}, {0.4, 0.6})
                   .Limit(5)
                   .Build());
  qs.push_back(QueryBuilder().OrderByLinear({2.0, 0.5}).Limit(64).Build());
  return qs;
}

// ---------------------------------------------------------------------------
// (a) Oracle parity.

TEST(PartitionParityTest, EveryEngineEveryPartitionCountMatchesOracle) {
  for (int nparts : {1, 3, 16}) {
    SCOPED_TRACE("partitions: " + std::to_string(nparts));
    Pair pair = MakePair(nparts, 2400);
    for (const std::string& engine : pair.oracle->Keys()) {
      SCOPED_TRACE("engine: " + engine);
      // index_merge takes no predicates; everything else also gets the
      // predicate queries (incl. one on the partition dim itself).
      std::vector<TopKQuery> queries;
      queries.push_back(
          QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(10).Build());
      if (engine != "index_merge") {
        for (TopKQuery& q : StraddlingQueries()) queries.push_back(q);
        queries.push_back(QueryBuilder()
                              .Where(0, 5)  // partition dim: exercises pruning
                              .OrderByLinear({1.0, 1.0})
                              .Limit(6)
                              .Build());
      }
      QueryOptions force;
      force.force_engine = engine;
      for (const TopKQuery& q : queries) {
        SCOPED_TRACE(q.ToString());
        auto scattered = pair.pdb->Query(q, force);
        ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
        EXPECT_EQ(ToGlobal(pair, scattered.value()), OracleAnswer(pair, q));
        // The accounting always covers every partition exactly once.
        const ScatterStats& sc = scattered.value().scatter;
        EXPECT_EQ(sc.queried + sc.pruned_by_predicate + sc.skipped_empty +
                      sc.pruned_by_bound,
                  sc.partitions);
      }
    }
  }
}

TEST(PartitionParityTest, PlannerRoutedScatterMatchesOracle) {
  Pair pair = MakePair(3, 2400);
  for (const TopKQuery& q : StraddlingQueries()) {
    SCOPED_TRACE(q.ToString());
    auto scattered = pair.pdb->Query(q);
    ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
    EXPECT_EQ(ToGlobal(pair, scattered.value()), OracleAnswer(pair, q));
  }
}

// Mid-maintenance: inserts and deletes land after the seed build, so each
// partition answers through its delta overlay until Compact absorbs it.
// Parity must hold in both states.
TEST(PartitionParityTest, MidMaintenanceDeltaOverlayMatchesOracle) {
  Pair pair = MakePair(3, 1200);
  // Warm some structures so the overlay path (structure + delta) runs.
  auto warm = pair.pdb->Query(
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build());
  ASSERT_TRUE(warm.ok());

  Rng rng(2026);
  for (int i = 0; i < 150; ++i) {
    std::vector<int32_t> sel = {
        static_cast<int32_t>(rng.UniformInt(kPartitionDomain)),
        static_cast<int32_t>(rng.UniformInt(6)),
        static_cast<int32_t>(rng.UniformInt(4))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    InsertBoth(&pair, sel, rank);
  }
  // Tombstone a handful of seed rows through both sides.
  int deleted = 0;
  for (const auto& [key, global] : pair.to_global) {
    if (global % 97 != 0) continue;
    ASSERT_TRUE(pair.pdb->Delete(key.first, key.second).ok());
    ASSERT_TRUE(pair.oracle->Delete(global).ok());
    if (++deleted == 8) break;
  }

  for (const TopKQuery& q : StraddlingQueries()) {
    SCOPED_TRACE("pre-compact: " + q.ToString());
    auto scattered = pair.pdb->Query(q);
    ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
    EXPECT_EQ(ToGlobal(pair, scattered.value()), OracleAnswer(pair, q));
  }

  ASSERT_TRUE(pair.pdb->Compact().ok());
  ASSERT_TRUE(pair.oracle->Compact().ok());
  for (const TopKQuery& q : StraddlingQueries()) {
    SCOPED_TRACE("post-compact: " + q.ToString());
    auto scattered = pair.pdb->Query(q);
    ASSERT_TRUE(scattered.ok()) << scattered.status().ToString();
    EXPECT_EQ(ToGlobal(pair, scattered.value()), OracleAnswer(pair, q));
  }
}

// ---------------------------------------------------------------------------
// (b) Pruning.

TEST(PartitionPruningTest, PartitionDimPredicateQueriesExactlyOnePartition) {
  Pair pair = MakePair(16, 2400);
  TopKQuery q = QueryBuilder()
                    .Where(0, 9)
                    .OrderByLinear({1.0, 1.0})
                    .Limit(8)
                    .Build();
  auto r = pair.pdb->Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().scatter.partitions, 16u);
  EXPECT_EQ(r.value().scatter.queried, 1u);
  EXPECT_EQ(r.value().scatter.pruned_by_predicate, 15u);
  EXPECT_EQ(ToGlobal(pair, r.value()), OracleAnswer(pair, q));

  auto plan = pair.pdb->ExplainScatter(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan.value().find("pruned=predicate"), std::string::npos);

  // A schema-valid value no partition covers (its partition was dropped):
  // clean empty answer, nothing queried.
  ASSERT_TRUE(pair.pdb->DropPartition("p9").ok());
  TopKQuery miss = q;  // Where(0, 9) — p9 owned exactly [9, 10)
  auto empty = pair.pdb->Query(miss);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().tuples.empty());
  EXPECT_EQ(empty.value().scatter.queried, 0u);
}

// Partitions whose rank values live in disjoint bands: the best partition
// alone fills the top-k, and its S_k beats every other partition's
// best-possible bound, so the gather stops without touching them — and the
// answer is still exactly the oracle's.
TEST(PartitionPruningTest, ScoreBoundEarlyTerminationSkipsColdPartitions) {
  TableSchema schema;
  schema.sel_cardinality = {4, 3};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.scatter_threads = 1;  // sequential: maximal early termination
  auto pdb = PartitionedDb::Open(std::move(popts)).value();

  Table oracle_table(schema);
  std::map<std::pair<std::string, Tid>, Tid> to_global;
  Rng rng(7);
  for (int p = 0; p < 4; ++p) {
    std::string name = "band" + std::to_string(p);
    Table seed(schema);
    for (int i = 0; i < 50; ++i) {
      std::vector<int32_t> sel = {p, static_cast<int32_t>(rng.UniformInt(3))};
      // Band p: both rank coords in [0.25p, 0.25p + 0.2] — scores under
      // linear {1,1} are disjoint across bands.
      std::vector<double> rank = {0.25 * p + 0.2 * rng.Uniform01(),
                                  0.25 * p + 0.2 * rng.Uniform01()};
      to_global[{name, static_cast<Tid>(seed.num_rows())}] =
          static_cast<Tid>(oracle_table.num_rows());
      ASSERT_TRUE(seed.AddRow(sel, rank).ok());
      ASSERT_TRUE(oracle_table.AddRow(sel, rank).ok());
    }
    ASSERT_TRUE(
        pdb->CreatePartition(name, {static_cast<int32_t>(p),
                                    static_cast<int32_t>(p) + 1},
                             std::move(seed))
            .ok());
  }
  RankCubeDb oracle(std::move(oracle_table));

  TopKQuery q = QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build();
  auto r = pdb->Query(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.value().scatter.pruned_by_bound, 1u);
  EXPECT_LT(r.value().scatter.queried, 4u);

  QueryOptions oracle_opts;
  oracle_opts.force_engine = "table_scan";
  auto expect_oracle = [&](const TopKQuery& query,
                           const PartitionedTopK& top) {
    auto truth = oracle.Query(query, oracle_opts);
    ASSERT_TRUE(truth.ok());
    std::vector<ScoredTuple> got;
    for (const PartitionedTuple& t : top.tuples) {
      auto it = to_global.find({t.partition, t.tid});
      ASSERT_NE(it, to_global.end());
      got.push_back({it->second, t.score});
    }
    EXPECT_EQ(got, truth.value().tuples);
  };
  expect_oracle(q, r.value());

  // A gate only band 2 passes (N1 in [0.5, 0.7]): every other partition's
  // bound is +inf, so the gather stops after band 2 even though its 50
  // rows leave the top-100 short.
  TopKQuery gated =
      QueryBuilder()
          .OrderBy(std::make_shared<ConstrainedSum>(2, 0, 1, 0.5, 0.7))
          .Limit(100)
          .Build();
  auto g = pdb->Query(gated);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().scatter.queried, 1u);
  EXPECT_EQ(g.value().scatter.pruned_by_bound, 3u);
  EXPECT_EQ(g.value().tuples.size(), 50u);
  expect_oracle(gated, g.value());
}

// ---------------------------------------------------------------------------
// (c) Retention, concurrency, crash recovery.

namespace {
/// Builds a durable single-partition db over `fs` and returns the fs
/// mutation ops one DropPartition costs. The partition holds `rows` rows.
int64_t DropCost(FaultFs* fs, uint64_t rows) {
  TableSchema schema;
  schema.sel_cardinality = {4, 4};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.data_dir = "/db";
  popts.fs = fs;
  popts.db.engines = {"table_scan"};
  auto pdb = PartitionedDb::Open(std::move(popts)).value();

  Table seed(schema);
  Rng rng(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(seed.AddRow({static_cast<int32_t>(rng.UniformInt(4)),
                             static_cast<int32_t>(rng.UniformInt(4))},
                            {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  }
  EXPECT_TRUE(pdb->CreatePartition("victim", {0, 4}, std::move(seed)).ok());

  fs->SetPlan(FaultPlan{});  // reset the op counter
  EXPECT_TRUE(pdb->DropPartition("victim").ok());
  EXPECT_TRUE(pdb->ListPartitions().empty());
  // The files are actually gone (deferred GC ran), yet none of that GC
  // counted as charged I/O — FaultFs charges appends and syncs only, which
  // is exactly the point: a drop writes the manifest and nothing else.
  auto left = fs->ListDir("/db/victim");
  EXPECT_TRUE(!left.ok() || left.value().empty());
  return fs->ops();
}
}  // namespace

TEST(PartitionRetentionTest, DropCostIsIndependentOfPartitionSize) {
  FaultFs small_fs;
  FaultFs large_fs;
  int64_t small = DropCost(&small_fs, 30);
  int64_t large = DropCost(&large_fs, 3000);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large) << "DropPartition charged I/O proportional to "
                             "partition size";
}

TEST(PartitionRetentionTest, DropIsWholePartitionOrNoneUnderConcurrentQueries) {
  TableSchema schema;
  schema.sel_cardinality = {3, 4};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  auto pdb = PartitionedDb::Open(std::move(popts)).value();

  // "hot" owns the whole top-k (scores < 0.2); keepers sit above 1.0.
  Rng rng(11);
  auto fill = [&](const std::string& name, int32_t key, double base) {
    Table seed(schema);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(seed.AddRow({key, static_cast<int32_t>(rng.UniformInt(4))},
                              {base + 0.05 * rng.Uniform01(),
                               base + 0.05 * rng.Uniform01()})
                      .ok());
    }
    ASSERT_TRUE(pdb->CreatePartition(name, {key, key + 1}, std::move(seed))
                    .ok());
  };
  fill("keep0", 0, 0.6);
  fill("keep1", 1, 0.8);
  fill("hot", 2, 0.01);

  const TopKQuery q =
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(10).Build();
  auto before = pdb->Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().tuples[0].partition, "hot");

  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  std::vector<std::vector<PartitionedTopK>> seen(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 60; ++i) {
        auto r = pdb->Query(q);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        seen[t].push_back(std::move(r).value());
      }
    });
  }
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::microseconds(300));
  ASSERT_TRUE(pdb->DropPartition("hot").ok());
  for (std::thread& t : readers) t.join();

  auto after = pdb->Query(q);
  ASSERT_TRUE(after.ok());
  for (const PartitionedTuple& t : after.value().tuples) {
    EXPECT_NE(t.partition, "hot");
  }
  // Every concurrent answer is exactly the pre-drop or the post-drop
  // result — never a blend (a query observes the whole partition or none).
  for (const auto& per_thread : seen) {
    for (const PartitionedTopK& r : per_thread) {
      EXPECT_TRUE(r.tuples == before.value().tuples ||
                  r.tuples == after.value().tuples)
          << "query observed a partially-dropped partition";
    }
  }
}

TEST(PartitionRecoveryTest, KillPointSweepOverMultiPartitionDataDir) {
  TableSchema schema;
  schema.sel_cardinality = {16, 4};
  schema.num_rank_dims = 2;
  auto open = [&](FaultFs* fs) {
    PartitionedDb::Options popts;
    popts.schema = schema;
    popts.partition_dim = 0;
    popts.data_dir = "/db";
    popts.fs = fs;
    popts.fsync = FsyncPolicy::kAlways;
    popts.db.engines = {"table_scan"};
    return PartitionedDb::Open(std::move(popts));
  };
  // Deterministic script: create two partitions, interleave inserts into
  // both, then drop one — every durable transition a retention deployment
  // performs.
  struct Acked {
    bool create_a = false, create_b = false, drop_b = false;
    uint64_t inserts_a = 0, inserts_b = 0;
  };
  auto run_script = [&](PartitionedDb* db) {
    Acked acked;
    Rng rng(5);
    acked.create_a = db->CreatePartition("a", {0, 8}).ok();
    if (acked.create_a) {
      acked.create_b = db->CreatePartition("b", {8, 16}).ok();
    }
    for (int i = 0; i < 12 && acked.create_b; ++i) {
      bool into_a = (i % 2) == 0;
      std::vector<int32_t> sel = {
          static_cast<int32_t>(into_a ? rng.UniformInt(8)
                                      : 8 + rng.UniformInt(8)),
          static_cast<int32_t>(rng.UniformInt(4))};
      if (!db->Insert(sel, {rng.Uniform01(), rng.Uniform01()}).ok()) break;
      (into_a ? acked.inserts_a : acked.inserts_b)++;
    }
    if (acked.create_b) acked.drop_b = db->DropPartition("b").ok();
    return acked;
  };

  // Dry run: total fs ops of the full script.
  int64_t total_ops = 0;
  {
    FaultFs fs;
    auto db = open(&fs);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    fs.SetPlan(FaultPlan{});
    Acked all = run_script(db.value().get());
    ASSERT_TRUE(all.drop_b);
    ASSERT_EQ(all.inserts_a + all.inserts_b, 12u);
    total_ops = fs.ops();
  }
  ASSERT_GT(total_ops, 0);

  for (int64_t kill = 0; kill < total_ops; ++kill) {
    SCOPED_TRACE("kill=" + std::to_string(kill));
    FaultFs fs;
    auto db = open(&fs);
    ASSERT_TRUE(db.ok());
    FaultPlan plan;
    plan.crash_after_ops = kill;
    fs.SetPlan(plan);
    Acked acked = run_script(db.value().get());
    db.value().reset();
    fs.Crash();  // power cut + reboot

    auto recovered = open(&fs);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    std::map<std::string, PartitionInfo> parts;
    for (PartitionInfo& info : recovered.value()->ListPartitions()) {
      parts[info.name] = std::move(info);
    }
    // Acked creates exist; an acked drop is gone for good.
    if (acked.create_a) ASSERT_EQ(parts.count("a"), 1u);
    if (acked.drop_b) EXPECT_EQ(parts.count("b"), 0u);
    // fsync=always: an acked insert IS durable, and an unacked one never
    // half-applies (the failed fs op aborted it before the WAL committed).
    if (acked.create_a) {
      EXPECT_EQ(parts["a"].rows, acked.inserts_a);
    }
    if (parts.count("b") != 0) {
      EXPECT_EQ(parts["b"].rows, acked.inserts_b);
    }
    // The recovered db still answers scatter queries.
    auto q = recovered.value()->Query(
        QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// (d) Durability counters and the wire protocol.

TEST(PartitionStatsTest, CompactSkipsPartitionsWithNothingToAbsorb) {
  FaultFs fs;
  TableSchema schema;
  schema.sel_cardinality = {4, 4};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.data_dir = "/db";
  popts.fs = &fs;
  popts.db.engines = {"table_scan"};
  auto pdb = PartitionedDb::Open(std::move(popts)).value();
  ASSERT_TRUE(pdb->CreatePartition("a", {0, 2}).ok());
  ASSERT_TRUE(pdb->CreatePartition("b", {2, 4}).ok());
  Rng rng(5);
  auto insert = [&](int32_t key) {
    ASSERT_TRUE(pdb->Insert({key, static_cast<int32_t>(rng.UniformInt(4))},
                            {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  };
  for (int i = 0; i < 4; ++i) {
    insert(1);
    insert(3);
  }
  ASSERT_TRUE(pdb->Compact().ok());
  auto generation = [&](const std::string& name) {
    return pdb->PartitionStats(name).value().checkpoint_generation;
  };
  const uint64_t b_generation = generation("b");

  // Only "a" has rows to absorb: only "a" checkpoints.
  insert(0);
  const uint64_t a_generation = generation("a");
  auto one = pdb->Compact();
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value().absorbed_inserts, 1u);
  EXPECT_EQ(generation("a"), a_generation + 1);
  EXPECT_EQ(generation("b"), b_generation);

  // Nothing anywhere: no write, no fsync.
  fs.SetPlan(FaultPlan{});
  auto none = pdb->Compact();
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(fs.ops(), 0);
  EXPECT_EQ(none.value().absorbed_inserts + none.value().absorbed_deletes,
            0u);

  // Scatter answers still see every row.
  auto all = pdb->Query(
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(20).Build());
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all.value().tuples.size(), 9u);
}

TEST(PartitionStatsTest, DurabilityCountersTrackWalAndCheckpoints) {
  FaultFs fs;
  TableSchema schema;
  schema.sel_cardinality = {4, 4};
  schema.num_rank_dims = 2;
  PartitionedDb::Options popts;
  popts.schema = schema;
  popts.partition_dim = 0;
  popts.data_dir = "/db";
  popts.fs = &fs;
  popts.db.engines = {"table_scan"};
  auto pdb = PartitionedDb::Open(std::move(popts)).value();
  ASSERT_TRUE(pdb->CreatePartition("w", {0, 4}).ok());

  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pdb->Insert({static_cast<int32_t>(rng.UniformInt(4)),
                             static_cast<int32_t>(rng.UniformInt(4))},
                            {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  }
  auto stats = pdb->PartitionStats("w");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().durable);
  EXPECT_EQ(stats.value().wal_records, 5u);  // recovery exposure
  EXPECT_EQ(stats.value().checkpoint_generation, 1u);  // the seed checkpoint

  ASSERT_TRUE(pdb->Checkpoint().ok());
  stats = pdb->PartitionStats("w");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().wal_records, 0u);  // exposure reset
  EXPECT_EQ(stats.value().checkpoint_generation, 2u);

  ASSERT_TRUE(pdb->Compact().ok());
  stats = pdb->PartitionStats("w");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().checkpoint_generation, 3u);

  // The aggregate view flattens the same counters per partition.
  std::string text = pdb->Stats().ToString();
  EXPECT_NE(text.find("partition.w.wal_records=0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("partition.w.checkpoint_generation=3"),
            std::string::npos)
      << text;

  // Reopen: recovery reads the checkpoints back (backing_reads) and the
  // generation survives.
  pdb.reset();
  PartitionedDb::Options reopen;
  reopen.schema = schema;
  reopen.partition_dim = 0;
  reopen.data_dir = "/db";
  reopen.fs = &fs;
  reopen.db.engines = {"table_scan"};
  auto again = PartitionedDb::Open(std::move(reopen)).value();
  stats = again->PartitionStats("w");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().checkpoint_generation, 3u);
  EXPECT_EQ(stats.value().rows, 5u);
  // backing_reads counts verified checkpoint preads at query time: a cold
  // query after reopen must hit the backing file.
  auto cold = again->Query(
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(3).Build());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  stats = again->PartitionStats("w");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().backing_reads, 0u);
}

class PartitionServerTest : public ::testing::Test {
 protected:
  void StartPartitioned() {
    TableSchema schema;
    schema.sel_cardinality = {8, 4};
    schema.num_rank_dims = 2;
    PartitionedDb::Options popts;
    popts.schema = schema;
    popts.partition_dim = 0;
    pdb_ = PartitionedDb::Open(std::move(popts)).value();
    server_ = std::make_unique<RankCubeServer>(pdb_.get(),
                                               RankCubeServer::Options{});
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  RankCubeClient Connect() {
    auto client = RankCubeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<PartitionedDb> pdb_;
  std::unique_ptr<RankCubeServer> server_;
};

TEST_F(PartitionServerTest, PartitionVerbsRoundTripEndToEnd) {
  StartPartitioned();
  RankCubeClient client = Connect();

  ASSERT_TRUE(client.PartitionCreate("w0", 0, 4).value().ok());
  ASSERT_TRUE(client.PartitionCreate("w1", 4, 8).value().ok());
  auto dup = client.PartitionCreate("w0", 0, 4);
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(dup.value().ok());  // duplicate name is a typed error

  // Inserts route by the partition dim; the response names the home.
  Rng rng(17);
  int in_w0 = 0;
  for (int i = 0; i < 40; ++i) {
    int32_t v = static_cast<int32_t>(rng.UniformInt(8));
    auto resp = client.Insert({v, static_cast<int32_t>(rng.UniformInt(4))},
                              {rng.Uniform01(), rng.Uniform01()});
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp.value().ok()) << resp.value().message;
    ASSERT_EQ(resp.value().lines.size(), 2u);
    std::string expect = v < 4 ? "partition=w0" : "partition=w1";
    EXPECT_EQ(resp.value().lines[1], expect);
    if (v < 4) ++in_w0;
  }

  // QueryTuples tolerates the third (partition) token; the raw lines
  // carry it.
  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,1";
  auto tuples = client.QueryTuples(spec);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  EXPECT_EQ(tuples.value().size(), 5u);
  auto raw = client.Query(spec);
  ASSERT_TRUE(raw.ok());
  ASSERT_EQ(raw.value().lines.size(), 6u);  // head + 5 tuples
  EXPECT_NE(raw.value().lines[0].find("engine=scatter"), std::string::npos);
  for (size_t i = 1; i < raw.value().lines.size(); ++i) {
    const std::string& line = raw.value().lines[i];
    size_t last_sp = line.rfind(' ');
    std::string partition = line.substr(last_sp + 1);
    EXPECT_TRUE(partition == "w0" || partition == "w1") << line;
  }

  // PARTITION_LIST reflects both partitions with their row counts.
  auto list = client.PartitionList();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().lines.size(), 2u);
  EXPECT_NE(list.value().lines[0].find("partition=w0 range=[0,4)"),
            std::string::npos);
  EXPECT_NE(list.value().lines[0].find("rows=" + std::to_string(in_w0)),
            std::string::npos);

  // Per-partition STATS exposes the partition's own counters.
  auto pstats = client.PartitionStats("w0");
  ASSERT_TRUE(pstats.ok());
  ASSERT_TRUE(pstats.value().ok());
  bool saw_rows = false;
  for (const std::string& line : pstats.value().lines) {
    if (line == "rows=" + std::to_string(in_w0)) saw_rows = true;
  }
  EXPECT_TRUE(saw_rows);

  // Partitioned DELETE addresses (partition, tid); bare DELETE is refused.
  auto bare = client.Delete(0);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().code, WireCode::kBadRequest);
  ASSERT_TRUE(client.DeleteIn("w0", 0).value().ok());

  // Drop w1, then its key range comes back empty but queries still work.
  ASSERT_TRUE(client.PartitionDrop("w1").value().ok());
  WireQuerySpec in_dropped;
  in_dropped.k = 3;
  in_dropped.order = "linear:1,1";
  in_dropped.where = {{0, 6}};
  auto gone = client.QueryTuples(in_dropped);
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_TRUE(gone.value().empty());
}

TEST(PartitionServerModeTest, PartitionVerbsRejectedOnUnpartitionedServer) {
  SyntheticSpec spec;
  spec.num_rows = 200;
  spec.num_sel_dims = 2;
  spec.cardinality = 4;
  spec.num_rank_dims = 2;
  spec.seed = 5;
  RankCubeDb db(GenerateSynthetic(spec));
  RankCubeServer server(&db, RankCubeServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  auto client = RankCubeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto resp = client.value().PartitionList();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().code, WireCode::kNotSupported);
}

}  // namespace
}  // namespace rankcube
