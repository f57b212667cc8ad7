#include <gtest/gtest.h>

#include "core/grid_cube.h"
#include "core/ranking_fragments.h"
#include "cube/fragments.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "reference.h"

namespace rankcube {
namespace {

Table MakeData(uint64_t rows = 5000, int s = 3, int32_t c = 10, int r = 2,
               uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = s;
  spec.cardinality = c;
  spec.num_rank_dims = r;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

TEST(EquiDepthGridTest, BinCountFollowsFormula) {
  Table t = MakeData(4800, 3, 10, 2);
  EquiDepthGrid grid(t, {.block_size = 300});
  // b = (T/P)^(1/R) = 16^(1/2) = 4.
  EXPECT_EQ(grid.bins_per_dim(), 4);
  EXPECT_EQ(grid.num_blocks(), 16u);
}

TEST(EquiDepthGridTest, BidCoordsRoundTrip) {
  Table t = MakeData(4800);
  EquiDepthGrid grid(t, {.block_size = 300});
  for (Bid b = 0; b < grid.num_blocks(); ++b) {
    EXPECT_EQ(grid.BidOfCoords(grid.CoordsOfBid(b)), b);
  }
}

TEST(EquiDepthGridTest, BlocksAreEquiDepth) {
  Table t = MakeData(9000, 3, 10, 2);
  EquiDepthGrid grid(t, {.block_size = 300});
  BaseBlockTable blocks(t, grid);
  // Uniform data: each block should hold roughly T / num_blocks tuples.
  double expected =
      static_cast<double>(t.num_rows()) / grid.num_blocks();
  for (Bid b = 0; b < grid.num_blocks(); ++b) {
    double n = static_cast<double>(blocks.GetBaseBlockNoCharge(b).size());
    EXPECT_NEAR(n, expected, expected * 0.5) << "block " << b;
  }
}

TEST(EquiDepthGridTest, PointsLandInTheirBox) {
  Table t = MakeData(3000);
  EquiDepthGrid grid(t, {.block_size = 300});
  std::vector<double> row(t.num_rank_dims());
  for (Tid i = 0; i < 200; ++i) {
    t.CopyRankRow(i, row.data());
    Bid b = grid.BidOfPoint(row.data());
    EXPECT_TRUE(grid.BoxOfBid(b).Contains(row))
        << "tuple " << i << " box " << grid.BoxOfBid(b).ToString();
  }
}

TEST(EquiDepthGridTest, NeighborsDifferInOneCoordinate) {
  Table t = MakeData(4800);
  EquiDepthGrid grid(t, {.block_size = 300});
  Bid center = grid.BidOfCoords({1, 1});
  auto nbs = grid.Neighbors(center);
  EXPECT_EQ(nbs.size(), 4u);  // interior block in 2-d: 4 neighbors
  Bid corner = grid.BidOfCoords({0, 0});
  EXPECT_EQ(grid.Neighbors(corner).size(), 2u);
}

TEST(GridCuboidTest, ScaleFactorExample4) {
  // Example 4: two selection dims of cardinality 2 -> sf = 2 on a 4x4 grid.
  SyntheticSpec spec;
  spec.num_rows = 4800;
  spec.num_sel_dims = 2;
  spec.cardinality = 2;
  spec.num_rank_dims = 2;
  Table t = GenerateSynthetic(spec);
  EquiDepthGrid grid(t, {.block_size = 300});
  ASSERT_EQ(grid.bins_per_dim(), 4);
  BaseBlockTable blocks(t, grid);
  GridCuboid cuboid = BuildGridCuboid(t, grid, blocks, {0, 1});
  EXPECT_EQ(cuboid.scale_factor, 2);
  EXPECT_EQ(cuboid.pseudo_bins, 2);  // 4 pseudo blocks total
}

TEST(GridCuboidTest, CellsPartitionAllTuples) {
  Table t = MakeData(2000);
  EquiDepthGrid grid(t, {.block_size = 300});
  BaseBlockTable blocks(t, grid);
  GridCuboid cuboid = BuildGridCuboid(t, grid, blocks, {0});
  size_t total = 0;
  for (const auto& [key, list] : cuboid.cells) total += list.size();
  EXPECT_EQ(total, t.num_rows());
}

TEST(GridRankingCubeTest, MatchesBruteForceOnWorkload) {
  Table t = MakeData(8000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 25;
  qspec.num_predicates = 2;
  qspec.k = 10;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)))
        << q.ToString();
  }
}

TEST(GridRankingCubeTest, DistanceFunctionWorkload) {
  Table t = MakeData(6000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 15;
  qspec.kind = QueryFunctionKind::kDistance;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(GridRankingCubeTest, RankingSubsetOfDimensions) {
  // r < R: function over 2 of 4 ranking dimensions (Fig 3.6 setting).
  Table t = MakeData(6000, 3, 10, 4);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  qspec.num_rank_used = 2;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(GridRankingCubeTest, EmptySelectionGivesEmptyResult) {
  Table t = MakeData(1000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  TopKQuery q;
  // Guaranteed-empty conjunction is unlikely with anchored queries; force
  // an out-of-data combination by brute-force search.
  q.predicates = {{0, 0}, {1, 1}, {2, 2}};
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
  q.k = 5;
  ExecStats stats;
  auto res = cube.TopK(q, &io, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
}

TEST(GridRankingCubeTest, NoPredicates) {
  Table t = MakeData(2000);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  TopKQuery q;
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
  q.k = 5;
  ExecStats stats;
  auto res = cube.TopK(q, &io, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
}

TEST(GridRankingCubeTest, KLargerThanMatches) {
  Table t = MakeData(500, 3, 20, 2);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  TopKQuery q;
  q.predicates = {{0, t.sel(0, 0)}, {1, t.sel(0, 1)}, {2, t.sel(0, 2)}};
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
  q.k = 100;  // more than can match
  ExecStats stats;
  auto res = cube.TopK(q, &io, &stats);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q)));
}

TEST(GridRankingCubeTest, ProgressiveSearchTouchesFewBlocks) {
  Table t = MakeData(20000, 3, 10, 2);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io);
  QueryWorkloadSpec qspec;
  qspec.num_queries = 10;
  uint64_t evaluated = 0;
  for (const auto& q : GenerateQueries(t, qspec)) {
    ExecStats stats;
    auto res = cube.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok());
    evaluated += stats.tuples_evaluated;
  }
  // Progressive access must evaluate far fewer tuples than 10 full scans.
  EXPECT_LT(evaluated, 10 * t.num_rows() / 4);
}

TEST(GridRankingCubeTest, MissingCuboidReportsNotFound) {
  Table t = MakeData(1000);
  PageStore store;
  IoSession io{&store};
  GridRankingCube cube(t, io, {.block_size = 300, .cuboid_dim_sets = {{0}}});
  TopKQuery q;
  q.predicates = {{1, 0}};
  q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
  ExecStats stats;
  auto res = cube.TopK(q, &io, &stats);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), Status::Code::kNotFound);
}

// ------------------------------ fragments -------------------------------

TEST(FragmentGroupingTest, EvenGroups) {
  auto g = GroupDimensions(12, 2);
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(g[5], (std::vector<int>{10, 11}));
  auto g3 = GroupDimensions(8, 3);
  ASSERT_EQ(g3.size(), 3u);
  EXPECT_EQ(g3[2], (std::vector<int>{6, 7}));  // remainder group
}

TEST(FragmentGroupingTest, AllSubsets) {
  auto s = AllSubsets({3, 7});
  EXPECT_EQ(s.size(), 3u);  // {3}, {7}, {3,7}
}

TEST(CoveringCuboidsTest, Example6) {
  // Fragments (A1,A2,N1N2) and (A3,A4,N1N2); query on (A1, A4):
  // covering set must be {A1_N1N2, A4_N1N2}.
  std::vector<std::vector<int>> materialized = {
      {0}, {1}, {0, 1}, {2}, {3}, {2, 3}};
  auto cover = SelectCoveringCuboids(materialized, {0, 3});
  ASSERT_EQ(cover.size(), 2u);
  std::set<std::vector<int>> got{materialized[cover[0]],
                                 materialized[cover[1]]};
  EXPECT_TRUE(got.count({0}));
  EXPECT_TRUE(got.count({3}));
}

TEST(CoveringCuboidsTest, PrefersMaximalCuboid) {
  std::vector<std::vector<int>> materialized = {{0}, {1}, {0, 1}};
  auto cover = SelectCoveringCuboids(materialized, {0, 1});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(materialized[cover[0]], (std::vector<int>{0, 1}));
}

TEST(RankingFragmentsTest, MatchesBruteForceAcrossCoverCounts) {
  Table t = MakeData(8000, 6, 8, 2);
  PageStore store;
  IoSession io{&store};
  RankingFragments frags(t, io, {.block_size = 300, .fragment_size = 2});
  // Queries intentionally spanning 1, 2 and 3 fragments.
  std::vector<std::vector<int>> dimsets = {{0, 1}, {0, 2}, {0, 2, 4}, {1, 3}};
  for (const auto& dims : dimsets) {
    TopKQuery q;
    for (int d : dims) q.predicates.push_back({d, t.sel(123, d)});
    q.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
    q.k = 10;
    ExecStats stats;
    auto res = frags.TopK(q, &io, &stats);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(ScoresOf(*res), ScoresOf(BruteForceTopK(t, q))) << q.ToString();
  }
}

TEST(RankingFragmentsTest, CoveringCountMatchesQueryShape) {
  Table t = MakeData(1000, 6, 4, 2);
  PageStore store;
  IoSession io{&store};
  RankingFragments frags(t, io, {.block_size = 300, .fragment_size = 2});
  TopKQuery q1;
  q1.predicates = {{0, 0}, {1, 0}};
  EXPECT_EQ(frags.CoveringCuboidCount(q1), 1);  // same fragment
  TopKQuery q2;
  q2.predicates = {{0, 0}, {2, 0}};
  EXPECT_EQ(frags.CoveringCuboidCount(q2), 2);
  TopKQuery q3;
  q3.predicates = {{0, 0}, {2, 0}, {4, 0}};
  EXPECT_EQ(frags.CoveringCuboidCount(q3), 3);
}

TEST(RankingFragmentsTest, SpaceGrowsLinearlyWithDimensions) {
  // Lemma 2: with fixed F, fragment space is linear in S.
  PageStore store;
  IoSession io{&store};
  Table t6 = MakeData(4000, 6, 8, 2, /*seed=*/1);
  Table t12 = MakeData(4000, 12, 8, 2, /*seed=*/1);
  RankingFragments f6(t6, io, {.block_size = 300, .fragment_size = 2});
  RankingFragments f12(t12, io, {.block_size = 300, .fragment_size = 2});
  double ratio = static_cast<double>(f12.SizeBytes()) / f6.SizeBytes();
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.6);  // ~2x cuboids, not 2^6 more
}

}  // namespace
}  // namespace rankcube
