// Mutable-cube acceptance suite: after ANY interleaving of inserts and
// deletes — before and after Compact(), queried sequentially and from
// concurrent reader threads — every engine must return results
// tuple-identical to the same engine rebuilt from scratch on the
// equivalent static table.
//
// Three mechanisms are under test, and the parity predicate covers all of
// them at once:
//  * the engine-level delta overlay (stale structures stay exact),
//  * per-structure incremental maintenance (ApplyDelta / Maintain),
//  * compaction (maintain-or-rebuild + log truncation + stats refresh).
//
// "Equivalent static table" = the live rows in tid order. Tids densify in
// the rebuild, so expected results are compared through the monotone
// old-tid -> static-tid map (monotone, hence score-tie order preserving).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/query_builder.h"
#include "engine/registry.h"
#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"

namespace rankcube {
namespace {

const std::vector<std::string>& AllEngines() {
  static const std::vector<std::string> kEngines = {
      "grid",          "fragments",     "signature",
      "signature_lossy", "table_scan",  "boolean_first",
      "ranking_first", "rank_mapping",  "index_merge"};
  return kEngines;
}

constexpr int kReaders = 4;

/// Answers `workload` through db.Query on kReaders threads that claim
/// queries from a shared cursor; answers come back in workload order.
std::vector<Result<TopKResult>> QueryOnReaders(
    RankCubeDb& db, const std::vector<TopKQuery>& workload,
    const QueryOptions& opts = QueryOptions()) {
  std::vector<Result<TopKResult>> out(workload.size(),
                                      Status::Internal("not run"));
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (size_t i = cursor++; i < workload.size(); i = cursor++) {
        out[i] = db.Query(workload[i], opts);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  return out;
}

/// Logical content of the mutable db, maintained alongside every write.
struct Mirror {
  TableSchema schema;
  std::vector<std::pair<std::vector<int32_t>, std::vector<double>>> rows;
  std::vector<bool> live;

  void Add(std::vector<int32_t> sel, std::vector<double> rank) {
    rows.emplace_back(std::move(sel), std::move(rank));
    live.push_back(true);
  }

  /// The equivalent static table: live rows in tid order.
  Table StaticTable() const {
    Table t(schema);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!live[i]) continue;
      EXPECT_TRUE(t.AddRow(rows[i].first, rows[i].second).ok());
    }
    return t;
  }

  /// old tid -> static tid (monotone over live tids).
  std::vector<Tid> TidMap() const {
    std::vector<Tid> map(rows.size(), 0);
    Tid next = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (live[i]) map[i] = next++;
    }
    return map;
  }
};

struct Fixture {
  Mirror mirror;  // must precede db: MakeTable fills it during db's init
  RankCubeDb db;
  Rng rng{991};

  explicit Fixture(size_t rows = 2000)
      : db(MakeTable(&mirror, rows), RankCubeDb::Options()) {}

  static Table MakeTable(Mirror* mirror, size_t rows) {
    TableSchema schema;
    schema.sel_cardinality = {5, 4, 3};
    schema.num_rank_dims = 2;
    mirror->schema = schema;
    Table t(schema);
    Rng rng(7);
    for (size_t i = 0; i < rows; ++i) {
      std::vector<int32_t> sel = {
          static_cast<int32_t>(rng.UniformInt(5)),
          static_cast<int32_t>(rng.UniformInt(4)),
          static_cast<int32_t>(rng.UniformInt(3))};
      std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
      EXPECT_TRUE(t.AddRow(sel, rank).ok());
      mirror->Add(std::move(sel), std::move(rank));
    }
    return t;
  }

  void BuildAllEngines() {
    for (const std::string& name : AllEngines()) {
      auto engine = db.Engine(name);
      ASSERT_TRUE(engine.ok()) << name << ": " << engine.status().ToString();
    }
  }

  Result<Tid> Insert() {
    std::vector<int32_t> sel = {
        static_cast<int32_t>(rng.UniformInt(5)),
        static_cast<int32_t>(rng.UniformInt(4)),
        static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    auto tid = db.Insert(sel, rank);
    EXPECT_TRUE(tid.ok()) << tid.status().ToString();
    if (tid.ok()) {
      EXPECT_EQ(static_cast<size_t>(tid.value()), mirror.rows.size());
      mirror.Add(std::move(sel), std::move(rank));
    }
    return tid;
  }

  void Delete(Tid tid) {
    ASSERT_TRUE(db.Delete(tid).ok()) << "tid " << tid;
    mirror.live[tid] = false;
  }

  /// Deletes `n` random live rows among tids < `below`.
  void DeleteRandomLive(size_t n, Tid below) {
    while (n > 0) {
      Tid t = static_cast<Tid>(rng.UniformInt(below));
      if (!mirror.live[t]) continue;
      Delete(t);
      --n;
    }
  }

  std::vector<TopKQuery> Workload() const {
    return {
        QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build(),
        QueryBuilder().OrderByLinear({3.0, 1.0}).Limit(50).Build(),
        QueryBuilder().Where(0, 2).OrderByLinear({1.0, 1.0}).Limit(10).Build(),
        QueryBuilder()
            .Where(1, 1)
            .Where(2, 0)
            .OrderByLinear({2.0, 1.0})
            .Limit(10)
            .Build(),
        QueryBuilder()
            .Where(0, 4)
            .OrderByDistance({1.0, 1.0}, {0.3, 0.6})
            .Limit(7)
            .Build(),
    };
  }

  /// Maps a mutable-db result onto static-table tids. Every returned tuple
  /// must be live.
  std::vector<ScoredTuple> Mapped(const std::vector<ScoredTuple>& tuples) {
    std::vector<Tid> map = mirror.TidMap();
    std::vector<ScoredTuple> out;
    out.reserve(tuples.size());
    for (const ScoredTuple& st : tuples) {
      EXPECT_TRUE(mirror.live[st.tid]) << "tombstoned tid " << st.tid
                                       << " surfaced";
      out.push_back({map[st.tid], st.score});
    }
    return out;
  }

  /// The acceptance predicate: every engine, forced on the mutable db,
  /// against the same engine rebuilt from scratch on the static table.
  void ExpectParityWithScratchRebuild(const std::string& trace) {
    SCOPED_TRACE(trace);
    Table static_table = mirror.StaticTable();
    PageStore static_store;
    IoSession static_io{&static_store};
    std::vector<TopKQuery> workload = Workload();
    for (const std::string& name : AllEngines()) {
      SCOPED_TRACE("engine: " + name);
      auto scratch =
          EngineRegistry::Global().Create(name, static_table, static_io);
      ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
      for (const TopKQuery& query : workload) {
        if (!(*scratch)->SupportsPredicates() && !query.predicates.empty()) {
          continue;
        }
        SCOPED_TRACE(query.ToString());
        ExecContext ctx;
        ctx.io = &static_io;
        auto want = (*scratch)->Execute(query, ctx);
        ASSERT_TRUE(want.ok()) << want.status().ToString();

        QueryOptions force;
        force.force_engine = name;
        auto got = db.Query(query, force);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(Mapped(got.value().tuples), want.value().tuples);
      }
    }
  }
};

TEST(UpdateTest, InterleavedWritesPreAndPostCompactMatchScratchRebuild) {
  Fixture fx;
  fx.BuildAllEngines();
  fx.ExpectParityWithScratchRebuild("epoch 0 (fresh structures)");

  // --- phase 1: writes against built structures (overlay must cover) -----
  std::vector<Tid> fresh;
  for (int i = 0; i < 60; ++i) {
    auto tid = fx.Insert();
    ASSERT_TRUE(tid.ok());
    fresh.push_back(tid.value());
  }
  // Delete the current top-1 of a workload query (a top-k member), some
  // random old rows, and some rows born in this delta.
  auto top = BruteForceTopK(fx.db.table(), fx.Workload()[0]);
  ASSERT_FALSE(top.empty());
  fx.Delete(top[0].tid);
  fx.DeleteRandomLive(40, /*below=*/2000);
  fx.Delete(fresh[3] == top[0].tid ? fresh[4] : fresh[3]);
  fx.Delete(fresh[40] == top[0].tid ? fresh[41] : fresh[40]);
  // Deterministically best rows for every workload query: delta inserts
  // that MUST enter each top-k. This is the configuration that catches an
  // engine double counting the delta (inner execution reading past its
  // build snapshot + the overlay scanning the tail again).
  ASSERT_TRUE(fx.db.Insert({2, 1, 0}, {0.0, 0.0}).ok());
  fx.mirror.Add({2, 1, 0}, {0.0, 0.0});
  ASSERT_TRUE(fx.db.Insert({4, 0, 1}, {0.3, 0.6}).ok());  // q5's target
  fx.mirror.Add({4, 0, 1}, {0.3, 0.6});
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(fx.Insert().ok());

  auto freshness = fx.db.FreshnessByEngine();
  ASSERT_FALSE(freshness.empty());
  EXPECT_FALSE(freshness.at("grid").fresh());
  EXPECT_EQ(freshness.at("grid").pending_inserts, 87u);
  EXPECT_EQ(freshness.at("grid").pending_deletes, 43u);
  EXPECT_TRUE(freshness.at("table_scan").fresh());

  fx.ExpectParityWithScratchRebuild("pre-compact (stale structures)");

  // --- compaction ---------------------------------------------------------
  auto compacted = fx.db.Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted.value().absorbed_inserts, 87u);
  EXPECT_EQ(compacted.value().absorbed_deletes, 43u);
  // grid, fragments, signature, signature_lossy, ranking_first maintain
  // incrementally; boolean_first, rank_mapping, index_merge rebuild;
  // table_scan was never stale.
  EXPECT_EQ(compacted.value().maintained, 5u);
  EXPECT_EQ(compacted.value().rebuilt, 3u);
  EXPECT_GT(compacted.value().pages, 0u);
  EXPECT_TRUE(fx.db.table().delta().empty());
  for (const auto& [name, f] : fx.db.FreshnessByEngine()) {
    EXPECT_TRUE(f.fresh()) << name;
  }

  fx.ExpectParityWithScratchRebuild("post-compact (maintained structures)");

  // --- phase 2: drift again on top of the compacted state ----------------
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(fx.Insert().ok());
  fx.DeleteRandomLive(20, static_cast<Tid>(fx.mirror.rows.size()));
  fx.ExpectParityWithScratchRebuild("post-compact drift (stale again)");

  auto compacted2 = fx.db.Compact();
  ASSERT_TRUE(compacted2.ok());
  fx.ExpectParityWithScratchRebuild("after second compaction");
}

TEST(UpdateTest, ConcurrentReadersStayExactOverStaleStructures) {
  Fixture fx;
  fx.BuildAllEngines();
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(fx.Insert().ok());
  fx.DeleteRandomLive(30, 2000);

  Table static_table = fx.mirror.StaticTable();
  std::vector<TopKQuery> workload;
  std::vector<std::vector<ScoredTuple>> want;
  for (const TopKQuery& q : fx.Workload()) {
    // Repeat each query so several readers race on the same structures.
    for (int copy = 0; copy < 4; ++copy) {
      workload.push_back(q);
      want.push_back(BruteForceTopK(static_table, q));
    }
  }

  // Planner-routed concurrent execution over stale structures...
  auto routed = QueryOnReaders(fx.db, workload);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(routed[i].ok()) << routed[i].status().ToString();
    EXPECT_EQ(fx.Mapped(routed[i].value().tuples), want[i])
        << workload[i].ToString();
  }

  // ... and the same workload forced through one stale structure each.
  for (const std::string& name : {std::string("grid"),
                                  std::string("signature"),
                                  std::string("boolean_first")}) {
    QueryOptions force;
    force.force_engine = name;
    auto forced = QueryOnReaders(fx.db, workload, force);
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(forced[i].ok()) << forced[i].status().ToString();
      EXPECT_EQ(fx.Mapped(forced[i].value().tuples), want[i])
          << name << ": " << workload[i].ToString();
    }
  }
}

TEST(UpdateTest, QueryEntirelyInsideDelta) {
  // Base rows never use sel0 == 4; every delta row does. A predicate on
  // that value is answerable only from the delta overlay — the stale
  // structures contribute nothing (grid: missing cell; signature: empty
  // cell pruner prunes everything).
  Mirror mirror;
  TableSchema schema;
  schema.sel_cardinality = {5, 4, 3};
  schema.num_rank_dims = 2;
  mirror.schema = schema;
  Table t(schema);
  Rng rng(17);
  for (int i = 0; i < 1200; ++i) {
    std::vector<int32_t> sel = {
        static_cast<int32_t>(rng.UniformInt(4)),  // only 0..3
        static_cast<int32_t>(rng.UniformInt(4)),
        static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(t.AddRow(sel, rank).ok());
    mirror.Add(std::move(sel), std::move(rank));
  }
  RankCubeDb db(std::move(t), RankCubeDb::Options());
  for (const std::string& name : AllEngines()) {
    ASSERT_TRUE(db.Engine(name).ok());
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<int32_t> sel = {4, static_cast<int32_t>(rng.UniformInt(4)),
                                static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(db.Insert(sel, rank).ok());
    mirror.Add(std::move(sel), std::move(rank));
  }

  TopKQuery query =
      QueryBuilder().Where(0, 4).OrderByLinear({1.0, 1.0}).Limit(10).Build();
  Table static_table = mirror.StaticTable();
  std::vector<ScoredTuple> want = BruteForceTopK(static_table, query);
  ASSERT_EQ(want.size(), 10u);

  std::vector<Tid> map = mirror.TidMap();
  for (const std::string& name : AllEngines()) {
    if (name == "index_merge") continue;  // no predicates in its model
    SCOPED_TRACE(name);
    QueryOptions force;
    force.force_engine = name;
    auto got = db.Query(query, force);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<ScoredTuple> mapped;
    for (const ScoredTuple& st : got.value().tuples) {
      mapped.push_back({map[st.tid], st.score});
    }
    EXPECT_EQ(mapped, want);
  }
}

TEST(UpdateTest, MaintainIsIdempotent) {
  // Direct engine maintenance, without the db facade: a grid engine over a
  // mutable table, brought up to date by Maintain.
  Mirror mirror;
  Table table = Fixture::MakeTable(&mirror, 1500);
  PageStore store;
  IoSession io{&store};
  auto built = EngineRegistry::Global().Create("grid", table, io);
  ASSERT_TRUE(built.ok());
  RankingEngine* engine = built->get();
  ASSERT_TRUE(engine->SupportsMaintenance());

  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    std::vector<int32_t> sel = {
        static_cast<int32_t>(rng.UniformInt(5)),
        static_cast<int32_t>(rng.UniformInt(4)),
        static_cast<int32_t>(rng.UniformInt(3))};
    std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
    ASSERT_TRUE(table.Insert(sel, rank).ok());
  }
  ASSERT_TRUE(table.Delete(10).ok());
  EXPECT_FALSE(engine->Freshness().fresh());

  TopKQuery query =
      QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(10).Build();
  std::vector<ScoredTuple> want = BruteForceTopK(table, query);

  IoSession maintain_io{&store};
  ASSERT_TRUE(engine->Maintain(&maintain_io).ok());
  EXPECT_GT(maintain_io.TotalPhysical(), 0u);
  EXPECT_TRUE(engine->Freshness().fresh());
  ExecContext ctx;
  ctx.io = &io;
  auto got = engine->Execute(query, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().tuples, want);

  // Empty delta: a second maintenance pass is a free no-op.
  IoSession again_io{&store};
  ASSERT_TRUE(engine->Maintain(&again_io).ok());
  EXPECT_EQ(again_io.TotalPhysical(), 0u);
  auto again = engine->Execute(query, ctx);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().tuples, want);
}

TEST(UpdateTest, ConcurrentWritersAndParallelReadersAreSerialized) {
  // A writer thread streams inserts/deletes/compactions while reader
  // threads run queries beside it. Results are only checkable weakly (each
  // query sees *some* consistent epoch), but the run must be TSan-clean:
  // the db's reader/writer gate is what keeps a column append from racing
  // a reader's rank_col() view.
  Fixture fx(1000);
  fx.BuildAllEngines();
  TopKQuery query =
      QueryBuilder().Where(0, 1).OrderByLinear({1.0, 1.0}).Limit(5).Build();

  std::thread writer([&] {
    Rng rng(123);
    for (int round = 0; round < 30; ++round) {
      std::vector<int32_t> sel = {
          static_cast<int32_t>(rng.UniformInt(5)),
          static_cast<int32_t>(rng.UniformInt(4)),
          static_cast<int32_t>(rng.UniformInt(3))};
      std::vector<double> rank = {rng.Uniform01(), rng.Uniform01()};
      ASSERT_TRUE(fx.db.Insert(sel, rank).ok());
      (void)fx.db.Delete(static_cast<Tid>(rng.UniformInt(1000)));
      if (round % 10 == 9) ASSERT_TRUE(fx.db.Compact().ok());
    }
  });
  auto answers = QueryOnReaders(fx.db, std::vector<TopKQuery>(160, query));
  writer.join();
  for (const Result<TopKResult>& r : answers) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().tuples.size(), 5u);
    for (size_t i = 1; i < r.value().tuples.size(); ++i) {
      EXPECT_LE(r.value().tuples[i - 1].score, r.value().tuples[i].score);
    }
  }
}

TEST(UpdateTest, PlannerPricesStalenessAndCompactionRestoresRouting) {
  // A structure that drifted keeps answering exactly (overlay) but pays
  // the delta tail in the estimate; Explain must reflect that, and the
  // estimate must drop back after Compact().
  Fixture fx;
  TopKQuery query =
      QueryBuilder().Where(0, 1).OrderByLinear({1.0, 1.0}).Limit(10).Build();
  ASSERT_TRUE(fx.db.Query(query).ok());  // builds the planner's choice

  auto before = fx.db.Explain(query);
  ASSERT_TRUE(before.ok());
  const std::string chosen = before.value().chosen_engine;
  double est_fresh = before.value().estimated_pages;

  for (int i = 0; i < 400; ++i) ASSERT_TRUE(fx.Insert().ok());
  QueryOptions force;
  force.force_engine = chosen;
  auto stale = fx.db.Explain(query, force);
  ASSERT_TRUE(stale.ok());
  EXPECT_GT(stale.value().estimated_pages, est_fresh);

  ASSERT_TRUE(fx.db.Compact().ok());
  auto after = fx.db.Explain(query, force);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().estimated_pages, stale.value().estimated_pages);
}

TEST(UpdateTest, MaintainingAClusteredFeedCostsUnderAFifthOfARebuild) {
  // A 1% live feed clustered as the paper's locality argument assumes: six
  // hot selection combinations, ranks within sigma 0.05 of one trend
  // point. Each arrival lands in one base block, one cell per cuboid and
  // one R-tree leaf, so Maintain touches few pages while a rebuild rescans
  // the relation per cuboid. Every maintainable engine must absorb the
  // feed at least 5x cheaper in pages than it rebuilds.
  SyntheticSpec spec;
  spec.num_rows = 20000;
  spec.num_sel_dims = 3;
  spec.sel_cardinalities = {8, 6, 4};
  spec.num_rank_dims = 2;
  spec.seed = 11;
  Table table = GenerateSynthetic(spec);
  PageStore store;
  const std::vector<std::string> maintainable = {"grid", "fragments",
                                                 "signature", "ranking_first"};
  std::vector<std::unique_ptr<RankingEngine>> engines;
  for (const std::string& name : maintainable) {
    IoSession build_io(&store);
    auto built = EngineRegistry::Global().Create(name, table, build_io);
    ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
    engines.push_back(std::move(built).value());
  }

  Rng feed(271828);
  std::vector<std::vector<int32_t>> hot;
  for (int i = 0; i < 6; ++i) {
    hot.push_back({static_cast<int32_t>(feed.UniformInt(8)),
                   static_cast<int32_t>(feed.UniformInt(6)),
                   static_cast<int32_t>(feed.UniformInt(4))});
  }
  for (int i = 0; i < 200; ++i) {
    std::vector<double> rank = {0.35, 0.55};
    for (double& r : rank) {
      r = std::clamp(r + feed.Gaussian(0.0, 0.05), 0.0, 1.0);
    }
    const std::vector<int32_t>& sel = hot[feed.UniformInt(hot.size())];
    ASSERT_TRUE(table.Insert(sel, rank).ok());
  }

  for (size_t e = 0; e < engines.size(); ++e) {
    SCOPED_TRACE(maintainable[e]);
    IoSession maintain_io(&store);
    ASSERT_TRUE(engines[e]->Maintain(&maintain_io).ok());
    IoSession rebuild_io(&store);
    auto rebuilt =
        EngineRegistry::Global().Create(maintainable[e], table, rebuild_io);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    const uint64_t maintain = maintain_io.TotalPhysical();
    const uint64_t rebuild = rebuild_io.TotalPhysical();
    RecordProperty(maintainable[e] + "_maintain_pages",
                   std::to_string(maintain));
    RecordProperty(maintainable[e] + "_rebuild_pages", std::to_string(rebuild));
    EXPECT_GE(rebuild, 5 * std::max<uint64_t>(1, maintain));
  }
}

}  // namespace
}  // namespace rankcube
