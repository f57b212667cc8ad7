#include "planner/cost_model.h"

#include <algorithm>
#include <cmath>

#include "cube/fragments.h"

namespace rankcube {
namespace {

constexpr double kEps = 1e-12;

/// Neighborhood/branch-and-bound overshoot: blocks (leaves) examined
/// beyond the ideal k-supplying set before the S_k bound closes. Like the
/// two factors below, calibrated against measured ExecStats::pages_read on
/// a mixed workload (planner_test's envelope case); every other quantity
/// comes from TableStats or the structure's AccessStructureInfo.
constexpr double kSearchOvershoot = 2.0;

double Ceil1(double x) { return std::max(1.0, std::ceil(x)); }

std::vector<int> SortedQueryDims(const TopKQuery& query) {
  std::vector<int> dims;
  dims.reserve(query.predicates.size());
  for (const auto& p : query.predicates) dims.push_back(p.dim);
  std::sort(dims.begin(), dims.end());
  return dims;
}

bool HasExactSet(const AccessStructureInfo& info,
                 const std::vector<int>& dims) {
  for (const auto& set : info.covered_dim_sets) {
    if (set == dims) return true;
  }
  return false;
}

bool HasAtomicCuboid(const AccessStructureInfo& info, int dim) {
  for (const auto& set : info.covered_dim_sets) {
    if (set.size() == 1 && set[0] == dim) return true;
  }
  return false;
}

/// Common query-shape quantities every estimator reads.
struct QueryShape {
  int s = 0;          ///< #predicates
  double sel = 1.0;   ///< estimated matching fraction
  double matches = 0; ///< expected matching rows
  double kk = 0;      ///< results actually obtainable: min(k, matches)
};

QueryShape ShapeOf(const TopKQuery& query, const TableStats& ts) {
  QueryShape q;
  q.s = static_cast<int>(query.predicates.size());
  q.sel = ts.Selectivity(query.predicates);
  q.matches = static_cast<double>(ts.num_rows) * q.sel;
  q.kk = std::min(static_cast<double>(query.k), std::max(q.matches, 0.0));
  return q;
}

/// Pseudo-blocking geometry of one cuboid (mirrors BuildGridCuboid §3.2.3):
/// sf bins merge per ranking dimension, so one cell spans sf^R base blocks
/// and the cell's tids spread over pseudo_bins^R pseudo blocks.
struct PseudoGeometry {
  double pids = 1.0;      ///< pseudo blocks per cell
  double bids_per_pid = 1; ///< base blocks one pseudo block covers
};

PseudoGeometry PseudoOf(const TableStats& ts, int grid_bins,
                        const std::vector<int>& cuboid_dims) {
  double prod = 1.0;
  for (int d : cuboid_dims) {
    prod *= static_cast<double>(
        std::max<size_t>(1, ts.value_counts[d].size()));
  }
  int sf = static_cast<int>(
      std::floor(std::pow(prod, 1.0 / std::max(1, ts.num_rank_dims))));
  sf = std::max(1, std::min(sf, grid_bins));
  int pseudo_bins = (grid_bins + sf - 1) / sf;
  PseudoGeometry g;
  g.pids = std::pow(static_cast<double>(pseudo_bins), ts.num_rank_dims);
  g.bids_per_pid = std::pow(static_cast<double>(sf), ts.num_rank_dims);
  return g;
}

/// §3.3/§3.5 neighborhood-search cost, shared by grid and fragments: the
/// search pops base blocks in lower-bound order until k matches close the
/// S_k bound; each popped block with matches pays its base-block pages and
/// each covering cuboid pays pseudo-block pages for newly touched pids.
CostEstimate GridFamilyCost(const AccessStructureInfo& info,
                            const TopKQuery& query, const TableStats& ts,
                            const std::vector<std::vector<int>>& covering) {
  QueryShape q = ShapeOf(query, ts);
  CostEstimate est;
  est.feasible = true;

  const double blocks =
      std::max(1.0, static_cast<double>(info.grid_blocks));
  const double tuples_per_block =
      static_cast<double>(ts.num_rows) / blocks;
  const double match_per_block = tuples_per_block * q.sel;

  // Blocks visited: enough to accumulate kk matches, inflated by the
  // expansion overshoot, capped at the whole grid.
  double visited =
      q.kk > 0
          ? kSearchOvershoot * Ceil1(q.kk / std::max(match_per_block, kEps))
          : 1.0;
  visited = std::min(visited, blocks);

  // Base-block reads: only blocks holding at least one match trigger
  // GetBaseBlock; Poisson-approximate the hit fraction.
  const double hit_frac = 1.0 - std::exp(-match_per_block);
  const size_t base_row_bytes = 8 + 8 * ts.num_rank_dims;
  const double base_pages_per_block =
      Ceil1(tuples_per_block * static_cast<double>(base_row_bytes) /
            static_cast<double>(ts.page_size));
  est.pages = visited * hit_frac * base_pages_per_block;
  est.tuples = visited * match_per_block;

  // Cuboid pseudo-block reads per covering cuboid: the cell holds
  // N * sel_i tids spread over its pids; visiting `visited` base blocks
  // touches about visited / bids_per_pid distinct pids.
  for (const auto& dims : covering) {
    std::vector<Predicate> sub;
    for (const auto& p : query.predicates) {
      if (std::find(dims.begin(), dims.end(), p.dim) != dims.end()) {
        sub.push_back(p);
      }
    }
    const double cell_tids =
        static_cast<double>(ts.num_rows) * ts.Selectivity(sub);
    PseudoGeometry g = PseudoOf(ts, std::max(1, info.grid_bins), dims);
    const double tids_per_pid = cell_tids / std::max(g.pids, 1.0);
    const double pages_per_pid =
        Ceil1((8.0 * tids_per_pid + 16.0) /
              static_cast<double>(ts.page_size));
    const double touched_pids =
        std::min(g.pids, Ceil1(visited / std::max(g.bids_per_pid, 1.0)));
    est.pages += touched_pids * pages_per_pid;
  }
  return est;
}

CostEstimate GridCost(const AccessStructureInfo& info, const TopKQuery& query,
                      const TableStats& ts) {
  std::vector<int> dims = SortedQueryDims(query);
  if (!dims.empty() && !HasExactSet(info, dims)) {
    CostEstimate est;
    est.reason = "no materialized cuboid matches the predicate dimensions";
    return est;
  }
  std::vector<std::vector<int>> covering;
  if (!dims.empty()) covering.push_back(dims);
  return GridFamilyCost(info, query, ts, covering);
}

CostEstimate FragmentsCost(const AccessStructureInfo& info,
                           const TopKQuery& query, const TableStats& ts) {
  std::vector<int> dims = SortedQueryDims(query);
  // Covering set: the query dims of each fragment group form one cuboid
  // (exact-match when a single group holds them all, §3.4.2).
  std::vector<std::vector<int>> covering;
  for (const auto& group : info.fragment_groups) {
    std::vector<int> in_group;
    for (int d : dims) {
      if (std::find(group.begin(), group.end(), d) != group.end()) {
        in_group.push_back(d);
      }
    }
    if (!in_group.empty()) covering.push_back(std::move(in_group));
  }
  size_t covered = 0;
  for (const auto& c : covering) covered += c.size();
  if (covered != dims.size()) {
    CostEstimate est;
    est.reason = "predicate dimensions not covered by the fragment groups";
    return est;
  }
  return GridFamilyCost(info, query, ts, covering);
}

CostEstimate TableScanCost(const TableStats& ts, const TopKQuery& query) {
  CostEstimate est;
  est.feasible = true;
  est.pages = static_cast<double>(ts.table_pages);
  est.tuples = ShapeOf(query, ts).matches;
  return est;
}

CostEstimate BooleanFirstCost(const TopKQuery& query, const TableStats& ts) {
  QueryShape q = ShapeOf(query, ts);
  CostEstimate est;
  est.feasible = true;
  if (q.s == 0) {
    est.pages = static_cast<double>(ts.table_pages);
    est.tuples = static_cast<double>(ts.num_rows);
    return est;
  }
  // The engine itself cost-picks the most selective posting list vs a scan;
  // the histogram gives the exact posting length, so this is near-exact.
  double best_len = static_cast<double>(ts.num_rows);
  for (const auto& p : query.predicates) {
    best_len = std::min(best_len, ts.PredicateSelectivity(p) *
                                      static_cast<double>(ts.num_rows));
  }
  const double index_pages =
      1.0 + std::floor(best_len * 4.0 / static_cast<double>(ts.page_size)) +
      best_len;  // posting pages + one random heap access per candidate
  est.pages = std::min(static_cast<double>(ts.table_pages), index_pages);
  est.tuples = q.matches;  // predicates filter before scoring on both paths
  return est;
}

/// Branch-and-bound tree shape shared by ranking_first and signature.
struct TreeShape {
  double leaves = 1.0;
  double entries_per_leaf = 1.0;
  double fanout = 2.0;
  double depth = 1.0;
};

TreeShape TreeOf(const AccessStructureInfo& info, const TableStats& ts) {
  TreeShape t;
  t.leaves = std::max(1.0, static_cast<double>(info.tree_leaves));
  t.entries_per_leaf = static_cast<double>(ts.num_rows) / t.leaves;
  t.fanout = std::max(2.0, static_cast<double>(info.tree_fanout));
  t.depth = std::max(1.0, static_cast<double>(info.tree_depth));
  return t;
}

CostEstimate RankingFirstCost(const AccessStructureInfo& info,
                              const TopKQuery& query, const TableStats& ts) {
  QueryShape q = ShapeOf(query, ts);
  TreeShape t = TreeOf(info, ts);
  CostEstimate est;
  est.feasible = true;
  // Candidates are popped in score order until kk of them verify, and
  // *every* pop pays one random heap access (§4.4.1 "Ranking" verifies
  // boolean predicates against the base table; with no predicates the
  // verification is vacuous but the fetch is still charged). With
  // predicates, 1/sel pops are expected per verified result.
  const double candidates =
      q.s > 0 ? q.kk / std::max(q.sel, kEps) : q.kk;
  double leaves_read = std::min(
      t.leaves,
      kSearchOvershoot * Ceil1(candidates / t.entries_per_leaf));
  const double internal = t.depth + leaves_read / t.fanout;
  est.pages = internal + leaves_read + candidates;
  est.tuples = leaves_read * t.entries_per_leaf;
  return est;
}

CostEstimate SignatureCost(const AccessStructureInfo& info,
                           const TopKQuery& query, const TableStats& ts,
                           bool lossy) {
  std::vector<int> dims = SortedQueryDims(query);
  if (!dims.empty() && !HasExactSet(info, dims)) {
    for (int d : dims) {
      if (!HasAtomicCuboid(info, d)) {
        CostEstimate est;
        est.reason = "predicate dimension A" + std::to_string(d) +
                     " has no signature cuboid";
        return est;
      }
    }
  }
  QueryShape q = ShapeOf(query, ts);
  TreeShape t = TreeOf(info, ts);
  CostEstimate est;
  est.feasible = true;
  // Signature pruning skips subtrees with no matching tuple — but the test
  // is per predicate source (§4.3.3 online assembly ANDs independent
  // signatures), so a leaf passes when it holds a match of *each*
  // predicate separately, not necessarily a joint match: the passing
  // fraction is the product of per-predicate leaf-hit fractions.
  double pass_frac = 1.0;
  for (const auto& p : query.predicates) {
    pass_frac *=
        1.0 - std::exp(-t.entries_per_leaf * ts.PredicateSelectivity(p));
  }
  const double passing_leaves = std::max(1.0, t.leaves * pass_frac);
  // Reading the passing leaves in score order, kk joint matches arrive
  // after kk/matches of them; with fewer matches than k the bound never
  // closes and the search exhausts every passing leaf.
  double leaves_read = std::min(
      passing_leaves,
      kSearchOvershoot *
          Ceil1(q.kk * passing_leaves / std::max(q.matches, kEps)));
  const double internal = t.depth + leaves_read / t.fanout;
  // Partial-signature loads are nearly free: the pruner caches each
  // partial after its first touch, and one cell's stored signature spans
  // only a few alpha-page partials (§4.2.3), so a whole query charges
  // about this many pages per predicate source.
  constexpr double kSignaturePagesPerSource = 2.0;
  const double sig_pages = q.s * kSignaturePagesPerSource;
  est.pages = internal + leaves_read + sig_pages;
  est.tuples = leaves_read * t.entries_per_leaf;
  if (lossy) {
    // §4.5: bloom pruning admits false positives; every popped candidate
    // that passes the bloom is verified with a random heap access.
    est.pages += q.kk + 0.01 * est.tuples;
  }
  return est;
}

CostEstimate IndexMergeCost(const AccessStructureInfo& info,
                            const TopKQuery& query, const TableStats& ts) {
  if (!query.predicates.empty()) {
    CostEstimate est;
    est.reason = "index_merge evaluates no boolean predicates (§5.1.1)";
    return est;
  }
  QueryShape q = ShapeOf(query, ts);
  CostEstimate est;
  est.feasible = true;
  const int r = std::max(1, ts.num_rank_dims);
  const double fanout = std::max(
      2.0, static_cast<double>(info.tree_fanout > 0 ? info.tree_fanout
                                                    : 204));
  const double leaves_per_tree =
      Ceil1(static_cast<double>(ts.num_rows) / fanout);
  const double depth = Ceil1(std::log(std::max(
                           leaves_per_tree, 2.0)) /
                           std::log(fanout)) + 1.0;
  // Progressive merge scans each tree's frontier until the joint threshold
  // passes the k-th score: about the (kk/N)^(1/r) quantile of each tree.
  const double frac = std::pow(
      std::max(q.kk, 1.0) / static_cast<double>(std::max<uint64_t>(
                                ts.num_rows, 1)),
      1.0 / static_cast<double>(r));
  // Joint-state expansion reads beyond each tree's ideal frontier.
  constexpr double kMergeFrontierFactor = 3.0;
  const double frontier_leaves =
      kMergeFrontierFactor * Ceil1(frac * leaves_per_tree);
  est.pages = static_cast<double>(r) *
              (depth + std::min(frontier_leaves, leaves_per_tree));
  est.tuples = static_cast<double>(r) *
               std::min(frontier_leaves, leaves_per_tree) * fanout;
  return est;
}

}  // namespace

namespace {

CostEstimate DispatchCost(const AccessStructureInfo& info,
                          const TopKQuery& query, const TableStats& ts) {
  CostEstimate est;
  if (info.engine == "table_scan") return TableScanCost(ts, query);
  if (info.engine == "grid") return GridCost(info, query, ts);
  if (info.engine == "fragments") return FragmentsCost(info, query, ts);
  if (info.engine == "signature" || info.engine == "signature_lossy") {
    return SignatureCost(info, query, ts, info.engine == "signature_lossy");
  }
  if (info.engine == "boolean_first") return BooleanFirstCost(query, ts);
  if (info.engine == "ranking_first") {
    return RankingFirstCost(info, query, ts);
  }
  if (info.engine == "index_merge") return IndexMergeCost(info, query, ts);
  est.reason = "no cost model for engine '" + info.engine +
               "' (force_engine only)";
  return est;
}

}  // namespace

CostEstimate EstimateCost(const AccessStructureInfo& info,
                          const TopKQuery& query, const TableStats& ts) {
  CostEstimate est;
  if (!query.predicates.empty() && !info.supports_predicates) {
    est.reason = "engine does not evaluate boolean predicates";
    return est;
  }
  if (info.requires_convex && query.function && !query.function->convex()) {
    est.reason = "search algorithm requires a convex ranking function";
    return est;
  }
  if (info.needs_external_bound) {
    est.reason = "requires an oracle k-th-score bound (force_engine only)";
    return est;
  }

  // Staleness pricing: a built structure lagging the table pays the delta
  // overlay on top of its own search — the exact sequential scan of the
  // appended heap tail, plus a deeper (k + pending-deletes) inner search so
  // tombstone filtering cannot starve the result. An unbuilt structure
  // would be constructed at the current epoch, and a table scan reads live
  // data by definition; neither overlays. This is the term that makes the
  // planner route drifted structures to a scan until compaction.
  //
  // What a structure owes is the log suffix after its *own* built_epoch —
  // one built (or maintained) mid-log must not be billed everything since
  // compaction. Exact when the stats carry the live log; the
  // since-compaction aggregates are the (conservative) fallback.
  const bool stale = info.built && info.engine != "table_scan" &&
                     ts.epoch > info.built_epoch;
  if (!stale) return DispatchCost(info, query, ts);

  uint64_t pending_inserts = ts.delta_rows;
  uint64_t pending_deletes = ts.deleted_since_compact;
  double overlay_pages = static_cast<double>(ts.delta_pages);
  if (ts.delta != nullptr) {
    DeltaStore::PendingSummary pending = ts.delta->Pending(info.built_epoch);
    pending_inserts = pending.inserts;
    pending_deletes = pending.deletes;
    overlay_pages =
        pending.has_insert
            ? static_cast<double>(
                  ts.table_pages -
                  pending.first_insert / std::max<size_t>(1, ts.rows_per_page))
            : 0.0;
  }
  if (pending_inserts == 0 && pending_deletes == 0) {
    return DispatchCost(info, query, ts);
  }

  TopKQuery effective = query;
  effective.k = query.k + static_cast<int>(
                              std::min<uint64_t>(pending_deletes, 1u << 20));
  est = DispatchCost(info, effective, ts);
  if (!est.feasible) return est;
  est.pages += overlay_pages;
  est.tuples += static_cast<double>(pending_inserts);
  return est;
}

AccessStructureInfo PredictStructureInfo(const std::string& engine,
                                         const TableStats& ts,
                                         const EngineBuildOptions& build) {
  AccessStructureInfo info;
  info.engine = engine;
  info.built = false;

  auto all_dims = [&ts] {
    std::vector<int> dims(ts.num_sel_dims);
    for (int d = 0; d < ts.num_sel_dims; ++d) dims[d] = d;
    return dims;
  };
  // Mirrors EquiDepthGrid's sizing: b = round((T/P)^(1/R)).
  auto grid_bins = [&ts](int block_size) {
    const double t =
        static_cast<double>(std::max<uint64_t>(1, ts.num_rows));
    const double p = static_cast<double>(std::max(1, block_size));
    return std::max(
        1, static_cast<int>(std::round(
               std::pow(t / p, 1.0 / std::max(1, ts.num_rank_dims)))));
  };
  // Mirrors RTree's sizing: M = page / (8d + 4), STR leaves packed full.
  auto rtree_shape = [&ts](AccessStructureInfo* out) {
    const int fanout = std::max(
        4, static_cast<int>(ts.page_size /
                            (8 * std::max(1, ts.num_rank_dims) + 4)));
    out->tree_fanout = fanout;
    double level = Ceil1(static_cast<double>(std::max<uint64_t>(
                             1, ts.num_rows)) /
                         fanout);
    out->tree_leaves = static_cast<uint64_t>(level);
    int depth = 1;
    while (level > 1.0) {
      level = Ceil1(level / fanout);
      ++depth;
    }
    out->tree_depth = depth;
  };

  if (engine == "grid") {
    info.requires_convex = true;
    info.coverage = AccessStructureInfo::DimCoverage::kExactSets;
    info.covered_dim_sets = build.grid.cuboid_dim_sets.empty()
                                ? AllSubsets(all_dims())
                                : build.grid.cuboid_dim_sets;
    for (auto& set : info.covered_dim_sets) {
      std::sort(set.begin(), set.end());
    }
    info.num_cuboids = static_cast<int>(info.covered_dim_sets.size());
    info.block_size = build.grid.block_size;
    info.grid_bins = grid_bins(build.grid.block_size);
    info.grid_blocks = static_cast<uint64_t>(
        std::pow(info.grid_bins, std::max(1, ts.num_rank_dims)));
  } else if (engine == "fragments") {
    info.requires_convex = true;
    info.coverage = AccessStructureInfo::DimCoverage::kAnySubset;
    info.fragment_groups =
        build.fragments.groups.empty()
            ? GroupDimensions(ts.num_sel_dims, build.fragments.fragment_size)
            : build.fragments.groups;
    for (const auto& group : info.fragment_groups) {
      for (auto& set : AllSubsets(group)) {
        info.covered_dim_sets.push_back(std::move(set));
      }
    }
    info.num_cuboids = static_cast<int>(info.covered_dim_sets.size());
    info.block_size = build.fragments.block_size;
    info.grid_bins = grid_bins(build.fragments.block_size);
    info.grid_blocks = static_cast<uint64_t>(
        std::pow(info.grid_bins, std::max(1, ts.num_rank_dims)));
  } else if (engine == "signature" || engine == "signature_lossy") {
    info.coverage = AccessStructureInfo::DimCoverage::kAtomicAssembly;
    if (build.signature.cuboid_dim_sets.empty()) {
      for (int d = 0; d < ts.num_sel_dims; ++d) {
        info.covered_dim_sets.push_back({d});
      }
    } else {
      info.covered_dim_sets = build.signature.cuboid_dim_sets;
      for (auto& set : info.covered_dim_sets) {
        std::sort(set.begin(), set.end());
      }
    }
    info.num_cuboids = static_cast<int>(info.covered_dim_sets.size());
    rtree_shape(&info);
  } else if (engine == "ranking_first") {
    rtree_shape(&info);
  } else if (engine == "table_scan" || engine == "boolean_first") {
    // Catalog statistics (histograms, heap geometry) fully describe both.
  } else if (engine == "rank_mapping") {
    info.needs_external_bound = true;
  } else if (engine == "index_merge") {
    info.supports_predicates = false;
    info.coverage = AccessStructureInfo::DimCoverage::kNone;
    info.num_cuboids = std::max(1, ts.num_rank_dims);
    info.tree_fanout =
        build.merge_btree_fanout > 0
            ? build.merge_btree_fanout
            : std::max(4, static_cast<int>(ts.page_size / 20));
  }
  // Anything else: an externally registered backend; keep the generic
  // entry (no cost model => force_engine only).
  return info;
}

}  // namespace rankcube
