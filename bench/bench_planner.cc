// Planner-quality harness: runs one mixed workload (needle lookups, broad
// selections, multi-fragment conjunctions, no-predicate top-k, full
// sweeps, distance queries) through
//   * the RankCubeDb cost-based planner (one db.Query per query, no hints),
//   * every static engine choice (the same query force_engine'd), and
// compares physical pages. A static engine that cannot answer a query
// (grid without a covering cuboid, index_merge under predicates) is
// charged the sequential-scan cost for it — the fallback a production
// deployment hard-coded to that engine would take.
//
// Reported figures:
//   * per_query_best: sum over queries of the cheapest static engine —
//     the routing oracle the planner tries to approximate;
//   * best/worst single static engine totals;
//   * planner total + chosen-engine distribution + estimate accuracy,
//     globally and per engine family (CostFeedback::Family);
//   * the same workload re-run after the true-cost feedback loop has
//     observed one training pass — the post-feedback estimate accuracy.
// The acceptance bar (ISSUE 4): planner within 15% of per_query_best and
// cheaper than the best single static engine. ISSUE 10 adds: the
// post-feedback estimate geomean ratio must land in [0.85, 1.15].
//
// signature_lossy (a strictly space-for-time variant of signature) and
// rank_mapping (runs on an oracle-provided k-th score, §3.5.1) are not
// static-choice candidates; both remain force_engine-able.
//
// Like the other BENCH_*.json harnesses this needs no google-benchmark,
// always builds, and emits BENCH_planner.json. --smoke shrinks the
// workload for CI.
//
// Usage:
//   bench_planner [--rows=N] [--per_class=N] [--seed=N] [--json=PATH]
//                 [--smoke]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/feedback.h"
#include "common/rng.h"
#include "engine/query_builder.h"
#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"

namespace rankcube {
namespace {

struct Flags {
  uint64_t rows = 30000;
  int per_class = 25;  ///< queries per workload class
  uint64_t seed = 7;   ///< data-generator seed (recorded in the JSON)
  bool smoke = false;
  std::string json = "BENCH_planner.json";
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
    } else if (ParseFlag(argv[i], "--per_class=", &v)) {
      f.per_class = std::atoi(v.c_str());
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
  if (f.smoke) {
    f.rows = 6000;
    f.per_class = 4;
  }
  return f;
}

/// The engines a deployment could statically hard-code (see header note).
const std::vector<std::string>& StaticEngines() {
  static const std::vector<std::string> kStatic = {
      "grid",       "fragments",     "signature",  "table_scan",
      "boolean_first", "ranking_first", "index_merge"};
  return kStatic;
}

struct ClassSpec {
  std::string name;
  std::vector<TopKQuery> queries;
};

/// Mixed workload over an 8-boolean-dim relation with cardinalities from
/// needle ids (2000) down to binary flags; each class exercises a regime
/// where a different physical structure should win.
std::vector<ClassSpec> MakeWorkload(const Table& table, int per_class,
                                    uint64_t seed) {
  Rng rng(seed);
  auto value_of = [&](int dim) {
    // Anchor on an existing row so selections are non-empty.
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    return table.sel(row, dim);
  };
  std::vector<ClassSpec> classes;

  ClassSpec needle{"needle_1pred", {}};
  for (int i = 0; i < per_class; ++i) {
    needle.queries.push_back(QueryBuilder()
                                 .Where(0, value_of(0))
                                 .OrderByLinear({1.0, 1.0})
                                 .Limit(10)
                                 .Build());
  }
  classes.push_back(std::move(needle));

  ClassSpec needle2{"needle_2pred", {}};
  for (int i = 0; i < per_class; ++i) {
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    needle2.queries.push_back(QueryBuilder()
                                  .Where(1, table.sel(row, 1))
                                  .Where(2, table.sel(row, 2))
                                  .OrderByLinear({2.0, 1.0})
                                  .Limit(10)
                                  .Build());
  }
  classes.push_back(std::move(needle2));

  ClassSpec pair{"selective_pair", {}};
  for (int i = 0; i < per_class; ++i) {
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    pair.queries.push_back(QueryBuilder()
                               .Where(2, table.sel(row, 2))
                               .Where(3, table.sel(row, 3))
                               .OrderByLinear({1.0, 3.0})
                               .Limit(10)
                               .Build());
  }
  classes.push_back(std::move(pair));

  ClassSpec cross{"cross_fragment", {}};
  for (int i = 0; i < per_class; ++i) {
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    cross.queries.push_back(QueryBuilder()
                                .Where(3, table.sel(row, 3))
                                .Where(5, table.sel(row, 5))
                                .Where(6, table.sel(row, 6))
                                .OrderByLinear({1.0, 1.0})
                                .Limit(10)
                                .Build());
  }
  classes.push_back(std::move(cross));

  ClassSpec broad{"broad_1pred", {}};
  for (int i = 0; i < per_class; ++i) {
    broad.queries.push_back(QueryBuilder()
                                .Where(6, value_of(6))
                                .OrderByLinear({1.0, 2.0})
                                .Limit(10)
                                .Build());
  }
  classes.push_back(std::move(broad));

  ClassSpec distance{"distance_1pred", {}};
  for (int i = 0; i < per_class; ++i) {
    distance.queries.push_back(
        QueryBuilder()
            .Where(4, value_of(4))
            .OrderByDistance({1.0, 1.0},
                             {rng.Uniform01(), rng.Uniform01()})
            .Limit(10)
            .Build());
  }
  classes.push_back(std::move(distance));

  ClassSpec nopred{"nopred_smallk", {}};
  for (int i = 0; i < per_class; ++i) {
    nopred.queries.push_back(
        QueryBuilder()
            .OrderByLinear({1.0 + rng.Uniform01(), 1.0})
            .Limit(10)
            .Build());
  }
  classes.push_back(std::move(nopred));

  ClassSpec sweep{"nopred_bigk", {}};
  int big_k = static_cast<int>(table.num_rows() / 6);
  for (int i = 0; i < per_class; ++i) {
    sweep.queries.push_back(QueryBuilder()
                                .OrderByLinear({1.0, 1.0 + rng.Uniform01()})
                                .Limit(big_k)
                                .Build());
  }
  classes.push_back(std::move(sweep));

  ClassSpec bigk_pred{"bigk_pred", {}};
  for (int i = 0; i < per_class; ++i) {
    bigk_pred.queries.push_back(QueryBuilder()
                                    .Where(7, value_of(7))
                                    .OrderByLinear({1.0, 1.0})
                                    .Limit(big_k / 2)
                                    .Build());
  }
  classes.push_back(std::move(bigk_pred));

  return classes;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  SyntheticSpec spec;
  spec.num_rows = flags.rows;
  spec.num_sel_dims = 8;
  spec.sel_cardinalities = {2000, 200, 20, 12, 8, 4, 2, 2};
  spec.num_rank_dims = 2;
  spec.seed = flags.seed;
  Table table = GenerateSynthetic(spec);

  RankCubeDb::Options options;
  // Production-style semi-materialization: the full 2^8-1 cube is too
  // expensive, so the grid materializes the hot low-dim subsets (all
  // subsets of the first four dims) and fragments (F=2) cover the rest.
  for (int a = 0; a < 4; ++a) {
    options.build.grid.cuboid_dim_sets.push_back({a});
    for (int b = a + 1; b < 4; ++b) {
      options.build.grid.cuboid_dim_sets.push_back({a, b});
    }
  }
  options.build.grid.cuboid_dim_sets.push_back({0, 1, 2});
  options.build.grid.cuboid_dim_sets.push_back({1, 2, 3});
  RankCubeDb db(std::move(table), options);
  // The baseline passes measure the RAW cost model (the historical
  // estimate_geomean_ratio); feedback is re-enabled afterwards for the
  // post-feedback passes.
  db.SetFeedbackEnabled(false);

  std::vector<ClassSpec> classes =
      MakeWorkload(db.table(), flags.per_class, /*seed=*/4242);

  // Measured physical pages: pages[engine][i] for query i (flattened over
  // classes), with infeasible combinations charged the scan fallback.
  size_t total_queries = 0;
  for (const auto& c : classes) total_queries += c.queries.size();
  std::map<std::string, std::vector<double>> static_pages;
  std::vector<double> planner_pages;
  std::vector<double> planner_estimates;
  std::vector<std::string> planner_choice;
  std::map<std::string, size_t> fallbacks;

  // Scan pages first: the fallback charge for engines that cannot answer.
  std::vector<double> scan_pages;
  for (const auto& c : classes) {
    for (const auto& q : c.queries) {
      QueryOptions force;
      force.force_engine = "table_scan";
      auto r = db.Query(q, force);
      if (!r.ok()) {
        std::fprintf(stderr, "table_scan failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      scan_pages.push_back(static_cast<double>(r.value().stats.pages_read));
    }
  }

  for (const std::string& engine : StaticEngines()) {
    auto& pages = static_pages[engine];
    size_t i = 0;
    for (const auto& c : classes) {
      for (const auto& q : c.queries) {
        QueryOptions force;
        force.force_engine = engine;
        auto r = db.Query(q, force);
        if (r.ok()) {
          pages.push_back(static_cast<double>(r.value().stats.pages_read));
        } else {
          pages.push_back(scan_pages[i]);  // deployment falls back to a scan
          ++fallbacks[engine];
        }
        ++i;
      }
    }
  }

  for (const auto& c : classes) {
    for (const auto& q : c.queries) {
      auto r = db.Query(q);
      if (!r.ok()) {
        std::fprintf(stderr, "planner failed on %s: %s\n",
                     q.ToString().c_str(), r.status().ToString().c_str());
        return 1;
      }
      planner_pages.push_back(static_cast<double>(r.value().stats.pages_read));
      planner_estimates.push_back(r.value().plan->estimated_pages);
      planner_choice.push_back(r.value().plan->chosen_engine);
    }
  }

  // Totals.
  auto total = [](const std::vector<double>& v) {
    double t = 0;
    for (double x : v) t += x;
    return t;
  };
  double planner_total = total(planner_pages);
  double best_total = 0, worst_total = 0;
  std::string best_engine, worst_engine;
  for (const auto& [engine, pages] : static_pages) {
    double t = total(pages);
    if (best_engine.empty() || t < best_total) {
      best_total = t;
      best_engine = engine;
    }
    if (worst_engine.empty() || t > worst_total) {
      worst_total = t;
      worst_engine = engine;
    }
  }
  double oracle_total = 0;
  for (size_t i = 0; i < total_queries; ++i) {
    double best = scan_pages[i];
    for (const auto& [engine, pages] : static_pages) {
      (void)engine;
      best = std::min(best, pages[i]);
    }
    oracle_total += best;
  }

  // Per-class report.
  std::printf("%-16s %10s %10s %10s  planner routes\n", "class", "planner",
              "best", "worst");
  size_t idx = 0;
  std::vector<std::string> class_lines;
  for (const auto& c : classes) {
    double p = 0, best_c = 0, worst_c = 0;
    std::map<std::string, int> routes;
    std::map<std::string, double> engine_c;
    for (size_t j = 0; j < c.queries.size(); ++j, ++idx) {
      p += planner_pages[idx];
      ++routes[planner_choice[idx]];
      for (const auto& [engine, pages] : static_pages) {
        engine_c[engine] += pages[idx];
      }
    }
    best_c = 1e300;
    for (const auto& [engine, t] : engine_c) {
      (void)engine;
      best_c = std::min(best_c, t);
      worst_c = std::max(worst_c, t);
    }
    std::string route_str;
    for (const auto& [engine, n] : routes) {
      route_str += engine + ":" + std::to_string(n) + " ";
    }
    std::printf("%-16s %10.0f %10.0f %10.0f  %s\n", c.name.c_str(), p,
                best_c, worst_c, route_str.c_str());
    std::printf("%-16s ", "");
    for (const auto& [engine, t] : engine_c) {
      std::printf(" %s:%.0f", engine.c_str(), t);
    }
    std::printf("\n");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"class\": \"%s\", \"planner_pages\": %.0f, "
                  "\"best_static_pages\": %.0f, \"worst_static_pages\": "
                  "%.0f}",
                  c.name.c_str(), p, best_c, worst_c);
    class_lines.push_back(buf);
  }

  // Estimate accuracy: geometric mean of max(est,1)/max(measured,1),
  // globally and grouped by the feedback family of the chosen engine.
  auto geomean = [](const std::vector<double>& est,
                    const std::vector<double>& measured) {
    double log_ratio = 0;
    for (size_t i = 0; i < est.size(); ++i) {
      log_ratio +=
          std::log(std::max(est[i], 1.0) / std::max(measured[i], 1.0));
    }
    return std::exp(log_ratio / std::max<size_t>(1, est.size()));
  };
  auto geomean_by_family = [&](const std::vector<double>& est,
                               const std::vector<double>& measured,
                               const std::vector<std::string>& choice) {
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        grouped;
    for (size_t i = 0; i < est.size(); ++i) {
      auto& g = grouped[CostFeedback::Family(choice[i])];
      g.first.push_back(est[i]);
      g.second.push_back(measured[i]);
    }
    std::map<std::string, double> out;
    for (const auto& [family, g] : grouped) {
      out[family] = geomean(g.first, g.second);
    }
    return out;
  };
  double est_geo_ratio = geomean(planner_estimates, planner_pages);
  std::map<std::string, double> est_geo_by_family =
      geomean_by_family(planner_estimates, planner_pages, planner_choice);

  // Post-feedback accuracy: let the correction loop observe one training
  // pass over the workload, then measure the same queries again with the
  // learned per-family factors applied.
  db.SetFeedbackEnabled(true);
  db.ResetFeedback();
  for (const auto& c : classes) {
    for (const auto& q : c.queries) {
      auto r = db.Query(q);
      if (!r.ok()) {
        std::fprintf(stderr, "feedback training failed on %s: %s\n",
                     q.ToString().c_str(), r.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::vector<double> post_pages, post_estimates;
  std::vector<std::string> post_choice;
  for (const auto& c : classes) {
    for (const auto& q : c.queries) {
      auto r = db.Query(q);
      if (!r.ok()) {
        std::fprintf(stderr, "post-feedback pass failed on %s: %s\n",
                     q.ToString().c_str(), r.status().ToString().c_str());
        return 1;
      }
      post_pages.push_back(static_cast<double>(r.value().stats.pages_read));
      post_estimates.push_back(r.value().plan->estimated_pages);
      post_choice.push_back(r.value().plan->chosen_engine);
    }
  }
  double post_geo_ratio = geomean(post_estimates, post_pages);
  std::map<std::string, double> post_geo_by_family =
      geomean_by_family(post_estimates, post_pages, post_choice);
  double post_total = total(post_pages);

  double vs_oracle = planner_total / std::max(oracle_total, 1.0);
  bool within_15 = vs_oracle <= 1.15;
  bool beats_best_static = planner_total < best_total;
  bool post_calibrated = post_geo_ratio >= 0.85 && post_geo_ratio <= 1.15;
  std::printf(
      "\nqueries=%zu\nplanner_total=%.0f  per_query_best=%.0f "
      "(%.3fx)\nbest_static=%s (%.0f)  worst_static=%s (%.0f)\n"
      "estimate_geomean_ratio=%.2f  post_feedback=%.2f (total %.0f)\n"
      "within_15pct_of_oracle=%s  beats_best_static=%s  "
      "post_feedback_calibrated=%s\n",
      total_queries, planner_total, oracle_total, vs_oracle,
      best_engine.c_str(), best_total, worst_engine.c_str(), worst_total,
      est_geo_ratio, post_geo_ratio, post_total, within_15 ? "yes" : "NO",
      beats_best_static ? "yes" : "NO", post_calibrated ? "yes" : "NO");
  for (const auto& [family, ratio] : est_geo_by_family) {
    double post = post_geo_by_family.count(family)
                      ? post_geo_by_family[family]
                      : 0.0;
    std::printf("  family %-14s estimate_ratio=%.2f post_feedback=%.2f\n",
                family.c_str(), ratio, post);
  }

  std::FILE* out = std::fopen(flags.json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"planner_routing\",\n"
               "  \"rows\": %llu,\n  \"seed\": %llu,\n  \"queries\": %zu,\n"
               "  \"planner_total_pages\": %.0f,\n"
               "  \"per_query_best_pages\": %.0f,\n"
               "  \"planner_vs_best_ratio\": %.4f,\n"
               "  \"within_15pct_of_per_query_best\": %s,\n"
               "  \"beats_best_static\": %s,\n"
               "  \"best_static\": {\"engine\": \"%s\", \"pages\": %.0f},\n"
               "  \"worst_static\": {\"engine\": \"%s\", \"pages\": %.0f},\n"
               "  \"estimate_geomean_ratio\": %.3f,\n",
               static_cast<unsigned long long>(flags.rows),
               static_cast<unsigned long long>(flags.seed), total_queries,
               planner_total, oracle_total, vs_oracle,
               within_15 ? "true" : "false",
               beats_best_static ? "true" : "false", best_engine.c_str(),
               best_total, worst_engine.c_str(), worst_total, est_geo_ratio);
  auto emit_family_map = [&](const char* key,
                             const std::map<std::string, double>& m) {
    std::fprintf(out, "  \"%s\": {", key);
    bool first_f = true;
    for (const auto& [family, ratio] : m) {
      std::fprintf(out, "%s\"%s\": %.3f", first_f ? "" : ", ", family.c_str(),
                   ratio);
      first_f = false;
    }
    std::fprintf(out, "},\n");
  };
  emit_family_map("estimate_geomean_ratio_by_family", est_geo_by_family);
  std::fprintf(out,
               "  \"post_feedback_estimate_geomean_ratio\": %.3f,\n"
               "  \"post_feedback_planner_total_pages\": %.0f,\n"
               "  \"post_feedback_calibrated\": %s,\n",
               post_geo_ratio, post_total, post_calibrated ? "true" : "false");
  emit_family_map("post_feedback_estimate_geomean_ratio_by_family",
                  post_geo_by_family);
  std::fprintf(out, "  \"static_totals\": {");
  bool first = true;
  for (const auto& [engine, pages] : static_pages) {
    std::fprintf(out, "%s\"%s\": %.0f", first ? "" : ", ", engine.c_str(),
                 total(pages));
    first = false;
  }
  std::fprintf(out, "},\n  \"fallback_queries\": {");
  first = true;
  for (const auto& [engine, n] : fallbacks) {
    std::fprintf(out, "%s\"%s\": %zu", first ? "" : ", ", engine.c_str(), n);
    first = false;
  }
  std::fprintf(out, "},\n  \"planner_routes\": {");
  std::map<std::string, int> routes;
  for (const auto& engine : planner_choice) ++routes[engine];
  first = true;
  for (const auto& [engine, n] : routes) {
    std::fprintf(out, "%s\"%s\": %d", first ? "" : ", ", engine.c_str(), n);
    first = false;
  }
  std::fprintf(out, "},\n  \"classes\": [\n");
  for (size_t i = 0; i < class_lines.size(); ++i) {
    std::fprintf(out, "%s%s\n", class_lines[i].c_str(),
                 i + 1 < class_lines.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", flags.json.c_str());

  // --smoke doubles as a CI health check: the planner must stay within
  // the acceptance envelope even on the shrunken workload.
  if (flags.smoke && (!within_15 || !beats_best_static)) {
    std::fprintf(stderr, "planner outside acceptance envelope\n");
    return 1;
  }
  if (flags.smoke && !post_calibrated) {
    std::fprintf(stderr,
                 "post-feedback estimate ratio %.3f outside [0.85, 1.15]\n",
                 post_geo_ratio);
    return 1;
  }
  return 0;
}

}  // namespace rankcube

int main(int argc, char** argv) { return rankcube::Main(argc, argv); }
