#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "core/signature_cube.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "reference.h"

namespace rankcube {
namespace {

Table MakeData(uint64_t rows = 6000, int s = 3, int32_t c = 10, int r = 2,
               uint64_t seed = 77) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = s;
  spec.cardinality = c;
  spec.num_rank_dims = r;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(SignatureCubeTest, MatchesBruteForceOnWorkload) {
  Table t = MakeData();
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 25;
  qspec.num_predicates = 2;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(SignatureCubeTest, AllFunctionKinds) {
  Table t = MakeData(4000, 3, 8, 3);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  for (auto kind : {QueryFunctionKind::kLinear, QueryFunctionKind::kDistance,
                    QueryFunctionKind::kSqLinear}) {
    QueryWorkloadSpec qspec;
    qspec.num_queries = 8;
    qspec.num_rank_used = 3;
    qspec.kind = kind;
    for (const auto& q : GenerateQueries(t, qspec)) {
      ExecStats stats;
      auto res = cube.TopK(q, &io, &stats);
      ASSERT_TRUE(res.ok());
      EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)))
          << q.ToString();
    }
  }
}

TEST(SignatureCubeTest, InsertBuildMatchesBulkBuild) {
  Table t = MakeData(2000);
  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;  // tuple-at-a-time R-tree construction
  SignatureCube cube(t, io, opt);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(SignatureCubeTest, SignaturePruningBeatsRankingFirstOnIo) {
  Table t = MakeData(20000, 3, 50, 2);  // selective predicates
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  RankingFirst ranking(t, &cube.rtree());
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  qspec.num_predicates = 2;
  uint64_t sig_io = 0, rank_io = 0;
  for (const auto& q : GenerateQueries(t, qspec)) {
    io.ResetStats();
    ExecStats s1;
    auto r1 = cube.TopK(q, &io, &s1);
    ASSERT_TRUE(r1.ok());
    sig_io += io.stats(IoCategory::kRTree).physical;
    io.ResetStats();
    ExecStats s2;
    auto r2 = ranking.TopK(q, &io, &s2);
    ASSERT_TRUE(r2.ok());
    rank_io += io.stats(IoCategory::kRTree).physical;
    EXPECT_EQ(ScoresOf(r1.value()), ScoresOf(*r2));
  }
  EXPECT_LT(sig_io, rank_io);  // Fig 4.13's claim
}

TEST(SignatureCubeTest, IncrementalInsertMatchesRebuild) {
  SyntheticSpec spec;
  spec.num_rows = 3000;
  spec.num_sel_dims = 3;
  spec.cardinality = 6;
  spec.num_rank_dims = 2;
  spec.seed = 5;
  Table t = GenerateSynthetic(spec);

  // Build cube over the first 2500 rows' paths by constructing from a
  // prefix table, then inserting the remaining rows incrementally and
  // absorbing them in one ApplyDelta batch.
  TableSchema schema = t.schema();
  Table prefix(schema);
  std::vector<double> rank(t.num_rank_dims());
  for (Tid i = 0; i < 2500; ++i) {
    t.CopyRankRow(i, rank.data());
    ASSERT_TRUE(prefix.AddRow({t.sel(i, 0), t.sel(i, 1), t.sel(i, 2)}, rank)
                    .ok());
  }
  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;
  SignatureCube cube(prefix, io, opt);

  for (Tid i = 2500; i < 3000; ++i) {
    t.CopyRankRow(i, rank.data());
    ASSERT_TRUE(prefix.Insert({t.sel(i, 0), t.sel(i, 1), t.sel(i, 2)}, rank)
                    .ok());
  }
  ASSERT_TRUE(cube.ApplyDelta(prefix.delta(), &io).ok());

  QueryWorkloadSpec qspec;
  qspec.num_queries = 15;
  for (const auto& q : GenerateQueries(prefix, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(prefix, q)))
        << q.ToString();
  }
}

// Regression: an R-tree leaf split moves some entries to a sibling while
// the stay-behind entries compact to lower positions, so within one
// update batch a mover's OLD position can alias a stayer's NEW one.
// Applying clear/set per update in batch order then let the mover's
// ClearPath erase the bit the stayer had just set — the base row silently
// vanished from the cell signature and from every later answer.
// ApplyPathUpdates must net per-tuple moves and apply every clear before
// any set. Tiny fan-out forces a split every few inserts, and verifying
// after EVERY insert catches the first lost row instead of hoping a
// workload query lands on it.
TEST(SignatureCubeTest, LeafSplitsNeverLoseRowsUnderIncrementalInsert) {
  TableSchema schema;
  schema.sel_cardinality = {2, 2};
  schema.num_rank_dims = 2;
  Table t(schema);
  Rng rng(13);
  auto add_row = [&] {
    ASSERT_TRUE(t.Insert({static_cast<int32_t>(rng.UniformInt(2)),
                          static_cast<int32_t>(rng.UniformInt(2))},
                         {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  };
  for (int i = 0; i < 8; ++i) add_row();

  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.bulk_load = false;
  opt.rtree_max_entries = 4;  // a split every few inserts
  SignatureCube cube(t, io, opt);

  TopKQuery probe;
  probe.k = 1000;  // every live row must surface
  probe.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
  for (int i = 0; i < 120; ++i) {
    add_row();
    ASSERT_TRUE(cube.ApplyDelta(t.delta(), &io).ok());
    for (int32_t v = 0; v < 2; ++v) {
      probe.predicates = {{0, v}};
      ExecStats stats;
      auto res = cube.TopK(probe, &io, &stats);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      ASSERT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, probe)))
          << "row lost after insert " << i << " in cell A0=" << v;
    }
  }
}

// A cell no row falls in is answered without touching a page: a value no
// row holds (no atomic cell) and an absent combination of a materialized
// two-dimension cuboid (no cell, though each value alone has one) both get
// the prune-all pruner.
TEST(SignatureCubeTest, EmptyCellShortCircuits) {
  TableSchema schema;
  schema.sel_cardinality = {4, 3};
  schema.num_rank_dims = 2;
  Table t(schema);
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    auto a = static_cast<int32_t>(rng.UniformInt(3));  // A = 3: no row
    auto b = static_cast<int32_t>(rng.UniformInt(3));
    if (a == 1 && b == 1) b = 2;  // (A = 1, B = 1): no row
    ASSERT_TRUE(t.AddRow({a, b}, {rng.Uniform01(), rng.Uniform01()}).ok());
  }
  PageStore store;
  IoSession build_io{&store};
  SignatureCubeOptions opt;
  opt.cuboid_dim_sets = {{0}, {1}, {0, 1}};
  SignatureCube cube(t, build_io, opt);

  const std::vector<std::vector<Predicate>> empty_cells = {{{0, 3}},
                                                           {{0, 1}, {1, 1}}};
  for (const auto& preds : empty_cells) {
    TopKQuery q;
    q.predicates = preds;
    q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
    q.k = 10;
    IoSession io{&store};
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->empty()) << q.ToString();
    EXPECT_EQ(io.TotalPhysical(), 0u) << q.ToString();
    EXPECT_EQ(stats.pages_read, 0u) << q.ToString();
    EXPECT_EQ(stats.signature_pages, 0u) << q.ToString();
  }
}

const Signature& AtomicCell(const SignatureCube& cube, const Predicate& p) {
  for (const auto& cuboid : cube.cuboids()) {
    if (cuboid.dims == std::vector<int>{p.dim}) {
      return cuboid.sigs.at(CellKey{{p.value}, 0});
    }
  }
  throw std::logic_error("no atomic cuboid");
}

void CollectTids(const RTree& rtree, uint32_t id, std::vector<Tid>* out) {
  const RTreeNode& node = rtree.node(id);
  for (const auto& e : node.entries) out->push_back(e.tid);
  for (uint32_t child : node.children) CollectTids(rtree, child, out);
}

// For every R-tree node and leaf entry, one pruner's MayContain/Qualifies
// answers equal a brute force over the table; fresh pruners check the full
// walk and its charges. A source passes a node iff the node's subtree holds
// a row of its cell, so a multi-source pruner ANDs per-source existence on
// nodes and is exact on tuples.
void ExpectPrunerMatchesBruteForce(const Table& t, const SignatureCube& cube,
                                   const std::vector<Predicate>& preds) {
  auto made = cube.MakePruner(preds);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  BooleanPruner& pruner = *made.value();
  std::vector<const Signature*> sources;
  for (const auto& p : preds) sources.push_back(&AtomicCell(cube, p));
  auto fresh = [&] { return std::move(cube.MakePruner(preds).value()); };

  const RTree& rtree = cube.rtree();
  const int M = rtree.max_entries();
  PageStore store;
  IoSession io{&store};
  std::vector<Sid> prefix;  // root-to-node SIDs of the node being visited
  auto visit = [&](auto&& self, uint32_t id, Sid sid) -> void {
    prefix.push_back(sid);
    std::vector<Tid> tids;
    CollectTids(rtree, id, &tids);
    // Brute force, and what a fresh pruner must charge: per source the
    // distinct partials of the prefix's nodes, until a source fails.
    bool may_contain = true;
    std::set<std::pair<size_t, size_t>> charged;
    for (size_t s = 0; s < preds.size() && may_contain; ++s) {
      for (Sid p : prefix) {
        size_t partial = sources[s]->PartialOf(p);
        if (partial != SIZE_MAX) charged.emplace(s, partial);
      }
      may_contain = std::any_of(tids.begin(), tids.end(), [&](Tid tid) {
        return t.sel(tid, preds[s].dim) == preds[s].value;
      });
    }
    ExecStats stats;
    EXPECT_EQ(pruner.MayContain(sid, &io, &stats), may_contain)
        << "node SID " << sid;
    ExecStats fresh_stats;
    EXPECT_EQ(fresh()->MayContain(sid, &io, &fresh_stats), may_contain);
    EXPECT_EQ(fresh_stats.signature_pages, charged.size()) << "node SID "
                                                           << sid;

    const RTreeNode& node = rtree.node(id);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Tid tid = node.entries[i].tid;
      const Sid tuple = ChildSid(sid, i + 1, M);
      bool qualifies = std::all_of(preds.begin(), preds.end(), [&](auto& p) {
        return t.sel(tid, p.dim) == p.value;
      });
      EXPECT_EQ(pruner.Qualifies(tid, tuple, &io, &stats), qualifies)
          << "tuple SID " << tuple;
      EXPECT_EQ(fresh()->Qualifies(tid, tuple, &io, &stats), qualifies)
          << "tuple SID " << tuple << " (full walk)";
    }
    for (size_t i = 0; i < node.children.size(); ++i) {
      self(self, node.children[i], ChildSid(sid, i + 1, M));
    }
    prefix.pop_back();
  };
  visit(visit, rtree.root(), 0);
}

// Pins the invariant the signature pruner's one-lookup-per-level walk
// relies on: a bit of an internal node is set iff its child node exists.
// M = 4 gives SIDs of several digits; the check runs on a one-source
// (atomic cell) and a two-source (online assembly) pruner, before and
// after an ApplyDelta whose inserts split leaves.
TEST(SignatureCubeTest, PrunerMatchesBruteForceOnEveryNodeAndEntry) {
  Table t = MakeData(400, 2, 4, 2, 19);
  PageStore store;
  IoSession io{&store};
  SignatureCubeOptions opt;
  opt.rtree_max_entries = 4;
  SignatureCube cube(t, io, opt);
  ASSERT_GE(cube.rtree().depth(), 4);

  auto check = [&] {
    for (int32_t v = 0; v < 4; ++v) {
      SCOPED_TRACE("A = " + std::to_string(v));
      ExpectPrunerMatchesBruteForce(t, cube, {{0, v}});
      ExpectPrunerMatchesBruteForce(t, cube, {{0, v}, {1, (v + 1) % 4}});
    }
  };
  check();

  const size_t leaves = cube.rtree().num_leaves();
  Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(t.Insert({static_cast<int32_t>(rng.UniformInt(4)),
                          static_cast<int32_t>(rng.UniformInt(4))},
                         {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  }
  for (Tid tid = 0; tid < 400; tid += 9) ASSERT_TRUE(t.Delete(tid).ok());
  ASSERT_TRUE(cube.ApplyDelta(t.delta(), &io).ok());
  ASSERT_GT(cube.rtree().num_leaves(), leaves);  // the inserts split leaves
  check();
}

TEST(SignatureCubeTest, CompressedSmallerThanBaseline) {
  Table t = MakeData(10000, 3, 20, 2);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  EXPECT_GT(cube.CompressedBytes(), 0u);
  EXPECT_LT(cube.CompressedBytes(), cube.BaselineBytes());
}

// Pins the signature measure's accounting on a fixed relation: the
// compressed and baseline sizes, the charged pages and partial-signature
// loads of queries on the exact-cell path ({0,1} and {1} have cuboids) and
// on the online-assembly path ({0,2} and {0,1,2} AND atomic cells), and the
// same after a write batch that ApplyDelta absorbs. 512-byte pages give
// every large cell several partials. A change to the signature's
// representation must reproduce every figure here.
TEST(SignatureCubeTest, AccountingIsPinnedOnAFixedRelation) {
  Table t = MakeData(5000, 3, 8, 2, 41);
  PageStore store(PageStore::Options{.page_size = 512});
  IoSession build_io{&store};
  SignatureCubeOptions opt;
  opt.cuboid_dim_sets = {{0}, {1}, {2}, {0, 1}};
  SignatureCube cube(t, build_io, opt);

  using Charges = std::vector<std::pair<uint64_t, uint64_t>>;
  auto run = [&] {
    const std::vector<std::vector<Predicate>> workload = {
        {{0, 3}, {1, 5}}, {{1, 4}}, {{0, 1}, {2, 6}}, {{0, 2}, {1, 2}, {2, 0}}};
    Charges out;  // (pages charged, partial signatures loaded) per query
    for (const auto& preds : workload) {
      TopKQuery q;
      q.predicates = preds;
      q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 3});
      q.k = 10;
      IoSession io{&store};
      ExecStats stats;
      auto res = cube.TopK(q, &io, &stats);
      EXPECT_TRUE(res.ok()) << res.status().ToString();
      if (res.ok()) {
        EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
      }
      out.emplace_back(io.TotalPhysical(), stats.signature_pages);
    }
    return out;
  };
  EXPECT_EQ(cube.construction_pages(), 905u);
  EXPECT_EQ(cube.CompressedBytes(), 23835u);
  EXPECT_EQ(cube.BaselineBytes(), 26325u);
  EXPECT_EQ(run(), (Charges{{21, 1}, {10, 1}, {44, 4}, {195, 9}}));

  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(t.Insert({static_cast<int32_t>(rng.UniformInt(8)),
                          static_cast<int32_t>(rng.UniformInt(8)),
                          static_cast<int32_t>(rng.UniformInt(8))},
                         {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  }
  for (Tid tid = 0; tid < 1000; tid += 25) ASSERT_TRUE(t.Delete(tid).ok());
  IoSession maintain_io{&store};
  ASSERT_TRUE(cube.ApplyDelta(t.delta(), &maintain_io).ok());
  EXPECT_EQ(maintain_io.TotalPhysical(), 406u);
  EXPECT_EQ(cube.CompressedBytes(), 25579u);
  EXPECT_EQ(cube.BaselineBytes(), 26923u);
  EXPECT_EQ(run(), (Charges{{23, 1}, {12, 3}, {49, 6}, {211, 9}}));
}

TEST(SignatureCubeTest, SignaturePagesAreCounted) {
  Table t = MakeData(8000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 5;
  ExecStats stats;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
  }
  EXPECT_GT(stats.signature_pages, 0u);
}

// -------------------------- baselines vs oracle --------------------------

TEST(BaselinesTest, TableScanMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = TableScanTopK(t, q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, BooleanFirstMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  BooleanFirst bf(t);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = bf.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, RankingFirstMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  SignatureCube cube(t, io);  // reuse its R-tree
  RankingFirst rf(t, &cube.rtree());
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = rf.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
  }
}

TEST(BaselinesTest, RankMappingWithOptimalBoundsMatchesBruteForce) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  RankMapping rm(t, {{0, 1, 2}});
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto oracle = BruteForceTopK(t, q);
    double kth = oracle.empty() ? 1e9 : oracle.back().score;
    ExecStats stats;
    auto res = rm.TopK(q, kth, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(oracle)) << q.ToString();
  }
}

TEST(BaselinesTest, RankMappingDistanceQueries) {
  Table t = MakeData(3000);
  PageStore store;
  IoSession io{&store};
  RankMapping rm(t, {{0, 1, 2}});
  QueryWorkloadSpec qspec;
  qspec.num_queries = 8;
  qspec.kind = QueryFunctionKind::kDistance;
  for (const auto& q : GenerateQueries(t, qspec)) {
    auto oracle = BruteForceTopK(t, q);
    double kth = oracle.empty() ? 1e9 : oracle.back().score;
    ExecStats stats;
    auto res = rm.TopK(q, kth, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(oracle)) << q.ToString();
  }
}

}  // namespace
}  // namespace rankcube
