// Result-cache harness: replays one deterministic mixed read/write schedule
// against two identically-seeded databases — one with the workload-aware
// result cache enabled, one without — and reports the closed-loop speedup.
//
// The schedule models repeated dashboard traffic: a fixed pool of --pool
// distinct popular queries, each issued query drawn from it with
// probability --repeat (Zipf(--zipf)-skewed toward the popular head, the
// rest ad-hoc one-offs), a --near_dup slice of the repeats re-ranked under
// ±1% perturbed linear weights (exercising the certified candidate-reuse
// path, not just exact hits), and an insert into both databases every
// --write_every queries (every 8th write compacts) so epoch invalidation
// keeps firing mid-stream and the popular head must re-cache.
//
// Correctness is enforced in-bench, not sampled: every cached answer must be
// tuple-identical (same tids in order, scores within 1e-9 relative) to the
// uncached database's answer for the same schedule position. Any mismatch
// fails the run regardless of --smoke.
//
// Like the other BENCH_*.json harnesses this needs no google-benchmark,
// always builds, and emits BENCH_cache.json. --smoke shrinks the schedule
// and enforces the acceptance floor: >= 3x closed-loop qps at repeat rate
// 0.9.
//
// Usage:
//   bench_cache [--rows=N] [--queries=N] [--repeat=R] [--near_dup=R]
//               [--pool=N] [--zipf=T] [--write_every=N] [--cache_mb=N]
//               [--seed=N] [--json=PATH] [--smoke]
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "engine/query_builder.h"
#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"

namespace rankcube {
namespace {

struct Flags {
  uint64_t rows = 30000;
  uint64_t queries = 8000;
  double repeat = 0.9;    ///< probability an issued query repeats the pool
  double near_dup = 0.2;  ///< of the repeats, fraction with perturbed weights
  uint64_t pool = 20;     ///< distinct popular queries
  double zipf = 0.95;     ///< skew of the popularity distribution
  int write_every = 800;  ///< one insert per this many queries
  uint64_t cache_mb = 64;
  uint64_t pages = 256;  ///< page-store LRU capacity (both databases)
  uint64_t seed = 11;
  bool smoke = false;
  std::string json = "BENCH_cache.json";
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
    } else if (ParseFlag(argv[i], "--queries=", &v)) {
      f.queries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--repeat=", &v)) {
      f.repeat = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--near_dup=", &v)) {
      f.near_dup = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--pool=", &v)) {
      f.pool = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--zipf=", &v)) {
      f.zipf = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--write_every=", &v)) {
      f.write_every = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--cache_mb=", &v)) {
      f.cache_mb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--pages=", &v)) {
      f.pages = std::strtoull(v.c_str(), nullptr, 10);
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
    // Scaled-down schedule: same shape (repeats, near-dups, a write with
    // its invalidation/re-cache cycle), ~1s wall time.
    f.rows = 6000;
    f.queries = 800;
    f.pool = 20;
    f.write_every = 400;
  }
  return f;
}

/// One schedule step, pre-generated so both databases replay the exact same
/// operation sequence (queries are rebuilt per run; RankingFunction state is
/// immutable so sharing specs is safe).
struct Op {
  enum Kind { kQuery, kInsert, kCompact } kind = kQuery;
  // kQuery
  std::vector<std::pair<int, int32_t>> preds;
  std::vector<double> weights;
  int k = 10;
  // kInsert
  std::vector<int32_t> sel;
  std::vector<double> rank;
};

TopKQuery BuildQuery(const Op& op) {
  QueryBuilder b;
  for (const auto& [dim, value] : op.preds) b.Where(dim, value);
  return b.OrderByLinear(op.weights).Limit(op.k).Build();
}

/// The full deterministic schedule: a fixed popular pool drawn Zipf-skewed,
/// an ad-hoc one-off tail, near-duplicates perturbing a pooled query's
/// weights by up to ±1% (same predicates and k — the sibling-reuse shape).
std::vector<Op> MakeSchedule(const Table& table, const Flags& flags) {
  Rng rng(flags.seed * 7919 + 1);
  std::vector<Op> pool;
  std::vector<Op> schedule;
  const int sel_dims = table.num_sel_dims();
  const int rank_dims = table.num_rank_dims();

  auto fresh = [&]() {
    Op op;
    op.kind = Op::kQuery;
    int npreds = static_cast<int>(rng.UniformInt(3));  // 0, 1 or 2
    Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
    int first_dim = static_cast<int>(rng.UniformInt(sel_dims));
    for (int p = 0; p < npreds; ++p) {
      int dim = (first_dim + p) % sel_dims;
      op.preds.emplace_back(dim, table.sel(row, dim));
    }
    for (int d = 0; d < rank_dims; ++d) {
      op.weights.push_back(rng.Uniform(0.5, 2.0));
    }
    static const int kChoices[] = {5, 10, 20};
    op.k = kChoices[rng.UniformInt(3)];
    return op;
  };

  for (uint64_t p = 0; p < flags.pool; ++p) pool.push_back(fresh());

  for (uint64_t i = 0; i < flags.queries; ++i) {
    if (flags.write_every > 0 && i > 0 &&
        i % static_cast<uint64_t>(flags.write_every) == 0) {
      uint64_t write_no = i / static_cast<uint64_t>(flags.write_every);
      if (write_no % 8 == 0) {
        Op op;
        op.kind = Op::kCompact;
        schedule.push_back(std::move(op));
      } else {
        Op op;
        op.kind = Op::kInsert;
        for (int d = 0; d < sel_dims; ++d) {
          Tid row = static_cast<Tid>(rng.UniformInt(table.num_rows()));
          op.sel.push_back(table.sel(row, d));
        }
        for (int d = 0; d < rank_dims; ++d) {
          op.rank.push_back(rng.Uniform01());
        }
        schedule.push_back(std::move(op));
      }
    }
    if (rng.Uniform01() < flags.repeat) {
      Op op = pool[rng.Zipf(pool.size(), flags.zipf)];
      if (rng.Uniform01() < flags.near_dup) {
        for (double& w : op.weights) {
          w *= 1.0 + (rng.Uniform01() - 0.5) * 0.002;  // within ±0.1%
        }
      }
      schedule.push_back(std::move(op));
    } else {
      schedule.push_back(fresh());  // ad-hoc one-off, never repeated
    }
  }
  return schedule;
}

struct RunResult {
  double query_seconds = 0;  ///< summed wall time of kQuery steps only
  uint64_t queries = 0;
  uint64_t writes = 0;
  /// Per-query answers in schedule order, for cross-run parity checking.
  std::vector<std::vector<ScoredTuple>> answers;
};

/// Replays the schedule; returns false on any execution failure.
bool Replay(RankCubeDb& db, const std::vector<Op>& schedule, RunResult* out) {
  for (const Op& op : schedule) {
    switch (op.kind) {
      case Op::kQuery: {
        TopKQuery q = BuildQuery(op);
        if (const char* probe = std::getenv("BENCH_CACHE_PROBE")) {
          if (out->queries == std::strtoull(probe, nullptr, 10)) {
            std::fprintf(stderr, "PROBE query k=%d weights=%.17g,%.17g preds:",
                         op.k, op.weights[0], op.weights[1]);
            for (const auto& [dim, value] : op.preds)
              std::fprintf(stderr, " (%d=%d)", dim, value);
            std::fprintf(stderr, " after %llu writes\n",
                         static_cast<unsigned long long>(out->writes));
            for (const char* eng :
                 {"grid", "fragments", "signature", "signature_lossy",
                  "table_scan", "boolean_first", "ranking_first",
                  "rank_mapping", "index_merge"}) {
              QueryOptions qo;
              qo.force_engine = eng;
              auto pr = db.Query(BuildQuery(op), qo);
              std::fprintf(stderr, "PROBE %-16s:", eng);
              if (!pr.ok()) {
                std::fprintf(stderr, " ERROR %s\n",
                             pr.status().ToString().c_str());
                continue;
              }
              for (const auto& t : pr.value().tuples)
                std::fprintf(stderr, " %llu/%.6g",
                             static_cast<unsigned long long>(t.tid), t.score);
              std::fprintf(stderr, "\n");
            }
          }
        }
        Stopwatch timer;
        auto r = db.Query(q);
        out->query_seconds += timer.ElapsedSeconds();
        if (!r.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       r.status().ToString().c_str());
          return false;
        }
        ++out->queries;
        out->answers.push_back(std::move(r.value().tuples));
        break;
      }
      case Op::kInsert: {
        auto r = db.Insert(op.sel, op.rank);
        if (!r.ok()) {
          std::fprintf(stderr, "insert failed: %s\n",
                       r.status().ToString().c_str());
          return false;
        }
        ++out->writes;
        break;
      }
      case Op::kCompact: {
        auto s = db.Compact();
        if (!s.ok()) {
          std::fprintf(stderr, "compact failed: %s\n",
                       s.status().ToString().c_str());
          return false;
        }
        ++out->writes;
        break;
      }
    }
  }
  return true;
}

/// Tuple parity: identical tids in identical order, scores within 1e-9
/// relative (both sides evaluate the same double pipeline; the tolerance
/// only absorbs non-associative summation differences between engines).
uint64_t CountMismatches(const RunResult& a, const RunResult& b) {
  uint64_t mismatches = 0;
  size_t n = std::min(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& x = a.answers[i];
    const auto& y = b.answers[i];
    bool ok = x.size() == y.size();
    for (size_t j = 0; ok && j < x.size(); ++j) {
      double tol = 1e-9 * std::max(1.0, std::abs(x[j].score));
      ok = x[j].tid == y[j].tid && std::abs(x[j].score - y[j].score) <= tol;
    }
    if (!ok) {
      ++mismatches;
      if (std::getenv("BENCH_CACHE_DEBUG") != nullptr) {
        std::fprintf(stderr, "MISMATCH q=%zu sizes=%zu/%zu\n", i, x.size(),
                     y.size());
        for (size_t j = 0; j < std::max(x.size(), y.size()); ++j) {
          long xt = j < x.size() ? static_cast<long>(x[j].tid) : -1;
          long yt = j < y.size() ? static_cast<long>(y[j].tid) : -1;
          double xs = j < x.size() ? x[j].score : -1;
          double ys = j < y.size() ? y[j].score : -1;
          if (xt != yt || xs != ys)
            std::fprintf(stderr, "  j=%zu off(tid=%ld s=%.17g) on(tid=%ld s=%.17g)\n",
                         j, xt, xs, yt, ys);
        }
      }
    }
  }
  mismatches += std::max(a.answers.size(), b.answers.size()) - n;
  return mismatches;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  SyntheticSpec spec;
  spec.num_rows = flags.rows;
  spec.num_sel_dims = 3;
  spec.cardinality = 20;
  spec.num_rank_dims = 2;
  spec.seed = flags.seed;

  // Identical geometry on both sides: the simulated device latency is what
  // a repeated query re-pays without the cache. The page-store LRU is kept
  // smaller than the full table so query execution actually hits the
  // device — a page cache holding everything would be measuring memcpy.
  RankCubeDb::Options base;
  base.store.cache_pages = flags.pages;
  base.store.read_latency_us = 100;
  RankCubeDb::Options cached_options = base;
  cached_options.cache.max_bytes = static_cast<size_t>(flags.cache_mb) << 20;

  RankCubeDb uncached(GenerateSynthetic(spec), base);
  RankCubeDb cached(GenerateSynthetic(spec), cached_options);

  std::vector<Op> schedule = MakeSchedule(uncached.table(), flags);

  RunResult off, on;
  if (!Replay(uncached, schedule, &off)) return 1;
  if (!Replay(cached, schedule, &on)) return 1;

  uint64_t mismatches = CountMismatches(off, on);
  ResultCacheStats cs = cached.CacheStats();
  double qps_off = static_cast<double>(off.queries) /
                   std::max(off.query_seconds, 1e-9);
  double qps_on = static_cast<double>(on.queries) /
                  std::max(on.query_seconds, 1e-9);
  double uplift = qps_on / std::max(qps_off, 1e-9);
  uint64_t lookups = cs.hits + cs.reuse_hits + cs.misses;
  double hit_rate = lookups == 0
                        ? 0.0
                        : static_cast<double>(cs.hits + cs.reuse_hits) /
                              static_cast<double>(lookups);

  std::printf(
      "queries=%llu writes=%llu repeat=%.2f near_dup=%.2f\n"
      "uncached: %.0f qps (%.2fs)\ncached:   %.0f qps (%.2fs)  -> %.2fx\n"
      "hits=%llu reuse_hits=%llu misses=%llu hit_rate=%.3f\n"
      "entries=%llu bytes=%llu evictions=%llu invalidations=%llu\n"
      "parity_mismatches=%llu\n",
      static_cast<unsigned long long>(on.queries),
      static_cast<unsigned long long>(on.writes), flags.repeat,
      flags.near_dup, qps_off, off.query_seconds, qps_on, on.query_seconds,
      uplift, static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.reuse_hits),
      static_cast<unsigned long long>(cs.misses), hit_rate,
      static_cast<unsigned long long>(cs.entries),
      static_cast<unsigned long long>(cs.bytes),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.invalidations),
      static_cast<unsigned long long>(mismatches));

  std::FILE* out = std::fopen(flags.json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\n  \"bench\": \"result_cache\",\n"
      "  \"rows\": %llu,\n  \"queries\": %llu,\n  \"writes\": %llu,\n"
      "  \"repeat_rate\": %.2f,\n  \"near_dup_rate\": %.2f,\n"
      "  \"cache_mb\": %llu,\n  \"seed\": %llu,\n"
      "  \"qps_uncached\": %.1f,\n  \"qps_cached\": %.1f,\n"
      "  \"qps_uplift\": %.3f,\n"
      "  \"cache_hits\": %llu,\n  \"cache_reuse_hits\": %llu,\n"
      "  \"cache_misses\": %llu,\n  \"hit_rate\": %.4f,\n"
      "  \"entries\": %llu,\n  \"bytes\": %llu,\n"
      "  \"evictions\": %llu,\n  \"invalidations\": %llu,\n"
      "  \"parity_mismatches\": %llu\n}\n",
      static_cast<unsigned long long>(flags.rows),
      static_cast<unsigned long long>(on.queries),
      static_cast<unsigned long long>(on.writes), flags.repeat,
      flags.near_dup, static_cast<unsigned long long>(flags.cache_mb),
      static_cast<unsigned long long>(flags.seed), qps_off, qps_on, uplift,
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.reuse_hits),
      static_cast<unsigned long long>(cs.misses), hit_rate,
      static_cast<unsigned long long>(cs.entries),
      static_cast<unsigned long long>(cs.bytes),
      static_cast<unsigned long long>(cs.evictions),
      static_cast<unsigned long long>(cs.invalidations),
      static_cast<unsigned long long>(mismatches));
  std::fclose(out);
  std::printf("wrote %s\n", flags.json.c_str());

  // A wrong cached answer is a correctness bug, never acceptable noise.
  if (mismatches != 0) {
    std::fprintf(stderr, "cached answers diverged from uncached oracle\n");
    return 1;
  }
  if (flags.smoke && uplift < 3.0) {
    std::fprintf(stderr, "cache uplift %.2fx below the 3x floor\n", uplift);
    return 1;
  }
  return 0;
}

}  // namespace rankcube

int main(int argc, char** argv) { return rankcube::Main(argc, argv); }
