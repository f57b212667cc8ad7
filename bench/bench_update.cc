// Mutable-cube harness: what does it cost to keep the access structures
// fresh under a live write feed, and what do stale structures cost per
// query before compaction?
//
// Part A — maintenance vs rebuild. Every maintainable engine (grid,
// fragments, signature, ranking_first) is built over the base relation; a
// 1% live feed is applied to the table; each engine then absorbs it via
// RankingEngine::Maintain (physical pages measured) and is separately
// rebuilt from scratch on the mutated table (pages measured). The feed is
// *clustered* — a handful of hot selection combinations with rank values
// concentrated around a trend point — which is the regime the paper's
// locality argument targets: each arriving tuple lands in one base block,
// one cell per cuboid, one R-tree leaf, so a batch touches few distinct
// pages while a rebuild rescans the whole relation per cuboid. The
// acceptance gate (ISSUE 5) requires maintenance to be at least 5x
// cheaper in pages than the rebuild for every maintainable engine.
//
// Part B — query overhead vs staleness. A RankCubeDb with pre-built
// structures serves a fixed mixed workload at delta fractions 0%, 1% and
// 10% (writes applied through db.Insert/db.Delete, structures left
// stale), then once more after Compact(). Stale queries pay the exact
// delta overlay (tail scan + deeper inner search); compaction removes it.
//
// Like the other BENCH_*.json harnesses this needs no google-benchmark,
// always builds, and emits BENCH_update.json. --smoke shrinks the dataset
// for CI and exits non-zero if the 5x maintenance gate fails.
//
// Usage:
//   bench_update [--rows=N] [--seed=N] [--json=PATH] [--smoke]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/query_builder.h"
#include "engine/registry.h"
#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"

namespace rankcube {
namespace {

struct Flags {
  uint64_t rows = 60000;
  double delta_fraction = 0.01;
  uint64_t seed = 11;  ///< data-generator seed (recorded in the JSON)
  bool smoke = false;
  std::string json = "BENCH_update.json";
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--rows=", &v)) {
      f.rows = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--json=", &v)) {
      f.json = v;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      f.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(1);
    }
  }
  // Maintenance pages are roughly constant in the relation size (the feed
  // touches the same hot cells) while rebuild pages scale with it, so the
  // smoke dataset must stay large enough for the 5x gate to be meaningful.
  if (f.smoke) f.rows = 20000;
  return f;
}

Table MakeBase(uint64_t rows, uint64_t seed) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = 3;
  spec.sel_cardinalities = {8, 6, 4};
  spec.num_rank_dims = 2;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

/// Clustered live feed: hot selection combos, rank values tight around a
/// trend point (new arrivals resemble each other — the locality regime).
struct Feed {
  Rng rng{271828};
  std::vector<std::vector<int32_t>> hot;
  std::vector<double> center = {0.35, 0.55};

  Feed() {
    for (int i = 0; i < 6; ++i) {
      hot.push_back({static_cast<int32_t>(rng.UniformInt(8)),
                     static_cast<int32_t>(rng.UniformInt(6)),
                     static_cast<int32_t>(rng.UniformInt(4))});
    }
  }

  std::vector<int32_t> Sel() { return hot[rng.UniformInt(hot.size())]; }
  std::vector<double> Rank() {
    std::vector<double> r(center.size());
    for (size_t d = 0; d < center.size(); ++d) {
      r[d] = std::min(1.0, std::max(0.0, center[d] + rng.Gaussian(0.0, 0.05)));
    }
    return r;
  }
};

const std::vector<std::string>& MaintainableEngines() {
  static const std::vector<std::string> kEngines = {
      "grid", "fragments", "signature", "ranking_first"};
  return kEngines;
}

struct MaintRow {
  std::string engine;
  uint64_t build_pages = 0;
  uint64_t maintain_pages = 0;
  uint64_t rebuild_pages = 0;
  double ratio = 0.0;  ///< rebuild / maintain
  double maintain_pages_per_insert = 0.0;
};

std::vector<TopKQuery> MakeWorkload(const Table& table, int per_class,
                                    uint64_t seed) {
  Rng rng(seed);
  auto anchor = [&](int dim) {
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    return table.sel(row, dim);
  };
  std::vector<TopKQuery> queries;
  for (int i = 0; i < per_class; ++i) {
    queries.push_back(
        QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build());
    queries.push_back(QueryBuilder()
                          .Where(0, anchor(0))
                          .OrderByLinear({1.0, 1.0})
                          .Limit(10)
                          .Build());
    queries.push_back(QueryBuilder()
                          .Where(1, anchor(1))
                          .Where(2, anchor(2))
                          .OrderByLinear({2.0, 1.0})
                          .Limit(10)
                          .Build());
  }
  return queries;
}

/// Average physical pages per query, all queries forced to `engine`
/// (empty = planner-routed).
double AvgPages(RankCubeDb* db, const std::vector<TopKQuery>& workload,
                const std::string& engine) {
  QueryOptions opts;
  opts.force_engine = engine;
  const uint64_t before = db->Stats().pages_charged;
  for (const TopKQuery& q : workload) {
    auto r = db->Query(q, opts);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed on '%s': %s\n", engine.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(db->Stats().pages_charged - before) /
         static_cast<double>(workload.size());
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  const size_t num_inserts =
      static_cast<size_t>(static_cast<double>(flags.rows) *
                          flags.delta_fraction);

  // ---- Part A: maintain vs rebuild --------------------------------------
  Table table = MakeBase(flags.rows, flags.seed);
  PageStore store;
  std::map<std::string, std::unique_ptr<RankingEngine>> engines;
  std::vector<MaintRow> rows;
  for (const std::string& name : MaintainableEngines()) {
    IoSession build_io(&store);
    auto engine = EngineRegistry::Global().Create(name, table, build_io);
    if (!engine.ok()) {
      std::fprintf(stderr, "build %s: %s\n", name.c_str(),
                   engine.status().ToString().c_str());
      return 1;
    }
    MaintRow row;
    row.engine = name;
    row.build_pages = build_io.TotalPhysical();
    rows.push_back(row);
    engines.emplace(name, std::move(engine).value());
  }

  Feed feed;
  for (size_t i = 0; i < num_inserts; ++i) {
    Status s = table.Insert(feed.Sel(), feed.Rank()).status();
    if (!s.ok()) {
      std::fprintf(stderr, "insert: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  double min_ratio = 1e300;
  for (MaintRow& row : rows) {
    RankingEngine* engine = engines.at(row.engine).get();
    IoSession maintain_io(&store);
    Status maintained = engine->Maintain(&maintain_io);
    if (!maintained.ok()) {
      std::fprintf(stderr, "maintain %s: %s\n", row.engine.c_str(),
                   maintained.ToString().c_str());
      return 1;
    }
    row.maintain_pages = maintain_io.TotalPhysical();
    row.maintain_pages_per_insert =
        static_cast<double>(row.maintain_pages) /
        static_cast<double>(num_inserts);

    IoSession rebuild_io(&store);
    auto rebuilt = EngineRegistry::Global().Create(row.engine, table,
                                                   rebuild_io);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "rebuild %s: %s\n", row.engine.c_str(),
                   rebuilt.status().ToString().c_str());
      return 1;
    }
    row.rebuild_pages = rebuild_io.TotalPhysical();
    row.ratio = static_cast<double>(row.rebuild_pages) /
                static_cast<double>(std::max<uint64_t>(1, row.maintain_pages));
    min_ratio = std::min(min_ratio, row.ratio);
  }

  std::printf("%-14s %12s %14s %13s %8s\n", "engine", "build_pages",
              "maintain_pages", "rebuild_pages", "ratio");
  for (const MaintRow& row : rows) {
    std::printf("%-14s %12llu %14llu %13llu %7.1fx\n", row.engine.c_str(),
                static_cast<unsigned long long>(row.build_pages),
                static_cast<unsigned long long>(row.maintain_pages),
                static_cast<unsigned long long>(row.rebuild_pages),
                row.ratio);
  }
  std::printf("1%% delta = %zu inserts; min rebuild/maintain = %.1fx\n\n",
              num_inserts, min_ratio);

  // ---- Part B: query overhead vs delta fraction --------------------------
  RankCubeDb db(MakeBase(flags.rows, flags.seed), RankCubeDb::Options());
  const std::vector<std::string> query_engines = {"grid", "fragments",
                                                  "signature", "table_scan"};
  for (const std::string& name : query_engines) {
    auto built = db.Engine(name);
    if (!built.ok()) {
      std::fprintf(stderr, "db build %s: %s\n", name.c_str(),
                   built.status().ToString().c_str());
      return 1;
    }
  }
  std::vector<TopKQuery> workload =
      MakeWorkload(db.table(), flags.smoke ? 3 : 8, /*seed=*/4242);

  struct OverheadRow {
    std::string phase;
    std::map<std::string, double> avg_pages;
  };
  std::vector<OverheadRow> overhead;
  Feed db_feed;
  Rng delete_rng(5150);
  auto measure = [&](const std::string& phase) {
    OverheadRow row;
    row.phase = phase;
    for (const std::string& name : query_engines) {
      row.avg_pages[name] = AvgPages(&db, workload, name);
    }
    row.avg_pages["planner"] = AvgPages(&db, workload, "");
    overhead.push_back(row);
  };
  auto apply_fraction = [&](double target_fraction) {
    size_t target = static_cast<size_t>(static_cast<double>(flags.rows) *
                                        target_fraction);
    size_t current = db.table().delta().InsertsSince(0);
    for (size_t i = current; i < target; ++i) {
      Status s = db.Insert(db_feed.Sel(), db_feed.Rank()).status();
      if (!s.ok()) std::exit(1);
      // One delete per 10 inserts: top-k members occasionally vanish, so
      // the overlay's deeper inner search is exercised too.
      if (i % 10 == 0) {
        Tid victim = static_cast<Tid>(delete_rng.UniformInt(flags.rows));
        (void)db.Delete(victim);  // may already be tombstoned: fine
      }
    }
  };

  measure("fresh");
  apply_fraction(0.01);
  measure("stale_1pct");
  apply_fraction(0.10);
  measure("stale_10pct");
  auto compacted = db.Compact();
  if (!compacted.ok()) {
    std::fprintf(stderr, "compact: %s\n",
                 compacted.status().ToString().c_str());
    return 1;
  }
  measure("post_compact");

  std::printf("%-12s", "phase");
  for (const std::string& name : query_engines) {
    std::printf(" %12s", name.c_str());
  }
  std::printf(" %12s\n", "planner");
  for (const OverheadRow& row : overhead) {
    std::printf("%-12s", row.phase.c_str());
    for (const std::string& name : query_engines) {
      std::printf(" %12.1f", row.avg_pages.at(name));
    }
    std::printf(" %12.1f\n", row.avg_pages.at("planner"));
  }
  std::printf("compaction: %zu maintained, %zu rebuilt, %llu pages\n",
              compacted.value().maintained, compacted.value().rebuilt,
              static_cast<unsigned long long>(compacted.value().pages));

  // ---- JSON ---------------------------------------------------------------
  std::FILE* out = std::fopen(flags.json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"update_maintenance\",\n"
               "  \"rows\": %llu,\n  \"seed\": %llu,\n"
               "  \"delta_fraction\": %.3f,\n"
               "  \"delta_inserts\": %zu,\n"
               "  \"min_rebuild_over_maintain\": %.2f,\n"
               "  \"maintenance\": [\n",
               static_cast<unsigned long long>(flags.rows),
               static_cast<unsigned long long>(flags.seed),
               flags.delta_fraction, num_inserts, min_ratio);
  for (size_t i = 0; i < rows.size(); ++i) {
    const MaintRow& row = rows[i];
    std::fprintf(out,
                 "    {\"engine\": \"%s\", \"build_pages\": %llu, "
                 "\"maintain_pages\": %llu, \"rebuild_pages\": %llu, "
                 "\"rebuild_over_maintain\": %.2f, "
                 "\"maintain_pages_per_insert\": %.3f}%s\n",
                 row.engine.c_str(),
                 static_cast<unsigned long long>(row.build_pages),
                 static_cast<unsigned long long>(row.maintain_pages),
                 static_cast<unsigned long long>(row.rebuild_pages),
                 row.ratio, row.maintain_pages_per_insert,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"query_overhead_avg_pages\": [\n");
  for (size_t i = 0; i < overhead.size(); ++i) {
    std::fprintf(out, "    {\"phase\": \"%s\"", overhead[i].phase.c_str());
    for (const auto& [name, pages] : overhead[i].avg_pages) {
      std::fprintf(out, ", \"%s\": %.1f", name.c_str(), pages);
    }
    std::fprintf(out, "}%s\n", i + 1 < overhead.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"compaction\": {\"maintained\": %zu, \"rebuilt\": "
               "%zu, \"pages\": %llu}\n}\n",
               compacted.value().maintained, compacted.value().rebuilt,
               static_cast<unsigned long long>(compacted.value().pages));
  std::fclose(out);
  std::printf("wrote %s\n", flags.json.c_str());

  // The acceptance gate (and the CI smoke check): incremental maintenance
  // must beat a from-scratch rebuild by at least 5x in pages for a 1%
  // delta, for every maintainable engine.
  if (min_ratio < 5.0) {
    std::fprintf(stderr,
                 "maintenance gate failed: min rebuild/maintain %.2fx < 5x\n",
                 min_ratio);
    return 1;
  }
  return 0;
}

}  // namespace rankcube

int main(int argc, char** argv) { return rankcube::Main(argc, argv); }
