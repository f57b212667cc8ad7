// Scoring hot-path microbenchmark: per function shape and per block size,
// compares three scoring inner loops —
//   scalar  gather a point vector + one virtual Evaluate per tuple (the
//           ScoreExpr tree walk every function's Evaluate is),
//   batch   the column-direct per-dimension loops the function classes
//           carried before every ranking function became one ScoreExpr
//           tree, kept here verbatim as the bench's fixed reference, on a
//           scrambled tid stream (the access pattern of a random retrieve
//           step),
//   fused   the specialized kernel layer (func/kernels/) on a scan-order
//           stream, where every block is a consecutive tid run and takes
//           the vectorized dense loop — the pattern every scan call site
//           (table scan, delta overlay, grid blocks) feeds it,
// plus the OfferBatch threshold filter against per-tuple Offer and a
// whole-pipeline section (predicate filter + score + threshold offer,
// fused vs a row-at-a-time filter feeding the reference loops). It needs
// no google-benchmark, always builds, and emits a machine-readable JSON
// report (BENCH_hotpath.json) so the scoring throughput trajectory is
// tracked commit over commit.
//
// Usage:
//   bench_hotpath [--rows=N] [--reps=N] [--seed=N] [--json=PATH] [--smoke]
//
// The default --rows matches the repository's laptop-scale bench convention
// (a 20k-row synthetic relation): columns stay cache-resident, so the
// figures isolate scoring *compute* throughput.
// Larger --rows shifts the scrambled paths toward memory-bound random
// column gathers and compresses the gaps; the dense fused loop reads
// columns sequentially and keeps vectorizing in either regime.
//
// Every pass is also a parity check: the reference loops, the kernels and
// the generic gather-and-Evaluate loop (RANKCUBE_FUSED_KERNELS=0) must all
// reproduce the scalar scores bit for bit.
//
// --smoke shrinks rows/reps to a few milliseconds of work AND enforces
// floor ratios on the fused-vs-batch speedups; CI runs it so a change that
// silently knocks a kernel off its specialized loop fails the build.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/topk_query.h"
#include "func/kernels/kernels.h"
#include "func/ranking_function.h"
#include "gen/synthetic.h"

namespace rankcube {
namespace {

constexpr int kRankDims = 4;

struct Flags {
  uint64_t rows = 20000;
  int reps = 10;       ///< passes over the tid stream per trial
  int trials = 5;      ///< best-of-N trials per cell (noise robustness)
  bool smoke = false;  ///< tiny sizes for CI health checks
  uint64_t seed = 7;   ///< data-generator seed (recorded in the JSON)
  std::string json = "BENCH_hotpath.json";
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
    } else if (ParseFlag(argv[i], "--reps=", &v)) {
      f.reps = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--trials=", &v)) {
      f.trials = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      f.smoke = true;
    } else if (ParseFlag(argv[i], "--json=", &v)) {
      f.json = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(1);
    }
  }
  if (f.smoke) {
    f.rows = std::min<uint64_t>(f.rows, 10000);
    f.reps = std::min(f.reps, 3);
    f.trials = std::min(f.trials, 1);
  }
  return f;
}

/// The scalar inner loop: per tuple, a gather into a point vector and one
/// virtual Evaluate call. The point buffer is caller-provided scratch,
/// hoisted out of the timed per-block calls.
void ScalarScore(const Table& table, const RankingFunction& f,
                 const Tid* tids, size_t n, std::vector<double>* point,
                 double* out) {
  point->resize(table.num_rank_dims());
  for (size_t i = 0; i < n; ++i) {
    for (int d = 0; d < table.num_rank_dims(); ++d) {
      (*point)[d] = table.rank(tids[i], d);
    }
    out[i] = f.Evaluate(point->data());
  }
}

/// One block of scores: out[i] = f(tids[i]).
using BatchLoop =
    std::function<void(const Table&, const Tid*, size_t, double*)>;

// The reference loops: one pass per involved dimension over the block,
// terms in ascending dimension order — the fold order of Evaluate, so the
// scores are bit-identical to it while the inner loops auto-vectorize.

BatchLoop LinearLoop(std::vector<double> w, bool squared) {
  return [w = std::move(w), squared](const Table& table, const Tid* tids,
                                     size_t n, double* out) {
    std::fill(out, out + n, 0.0);
    for (size_t d = 0; d < w.size(); ++d) {
      if (w[d] == 0.0) continue;
      const double* col = table.rank_col(static_cast<int>(d));
      const double wd = w[d];
      for (size_t i = 0; i < n; ++i) out[i] += wd * col[tids[i]];
    }
    if (squared) {
      for (size_t i = 0; i < n; ++i) out[i] *= out[i];
    }
  };
}

BatchLoop QuadraticLoop(std::vector<double> w, std::vector<double> t) {
  return [w = std::move(w), t = std::move(t)](const Table& table,
                                              const Tid* tids, size_t n,
                                              double* out) {
    std::fill(out, out + n, 0.0);
    for (size_t d = 0; d < w.size(); ++d) {
      if (w[d] == 0.0) continue;
      const double* col = table.rank_col(static_cast<int>(d));
      const double wd = w[d], td = t[d];
      for (size_t i = 0; i < n; ++i) {
        const double diff = col[tids[i]] - td;
        out[i] += wd * diff * diff;
      }
    }
  };
}

BatchLoop L1Loop(std::vector<double> w, std::vector<double> t) {
  return [w = std::move(w), t = std::move(t)](const Table& table,
                                              const Tid* tids, size_t n,
                                              double* out) {
    std::fill(out, out + n, 0.0);
    for (size_t d = 0; d < w.size(); ++d) {
      if (w[d] == 0.0) continue;
      const double* col = table.rank_col(static_cast<int>(d));
      const double wd = w[d], td = t[d];
      for (size_t i = 0; i < n; ++i) {
        out[i] += wd * std::abs(col[tids[i]] - td);
      }
    }
  };
}

BatchLoop GeneralABLoop(int a, int b) {
  return [a, b](const Table& table, const Tid* tids, size_t n, double* out) {
    const double* ca = table.rank_col(a);
    const double* cb = table.rank_col(b);
    for (size_t i = 0; i < n; ++i) {
      const Tid t = tids[i];
      const double diff = ca[t] - cb[t] * cb[t];
      out[i] = diff * diff;
    }
  };
}

BatchLoop ConstrainedSumLoop(int a, int b, double lo, double hi) {
  return [a, b, lo, hi](const Table& table, const Tid* tids, size_t n,
                        double* out) {
    const double* ca = table.rank_col(a);
    const double* cb = table.rank_col(b);
    for (size_t i = 0; i < n; ++i) {
      const Tid t = tids[i];
      const double v = cb[t];
      out[i] = (v < lo || v > hi) ? kInfScore : ca[t] + v;
    }
  };
}

/// A benchmarked function: the library's builder and its reference loop,
/// made from the same parameters.
struct Subject {
  std::string name;
  RankingFunctionPtr f;
  BatchLoop batch;
};

/// Scores `tids` block by block and compares with `expect`, bitwise.
bool SameScores(const char* path, const std::string& name,
                const std::vector<Tid>& tids, size_t block,
                const std::vector<double>& expect, std::vector<double>* got,
                const std::function<void(const Tid*, size_t, double*)>& run) {
  for (size_t off = 0; off < tids.size(); off += block) {
    size_t n = std::min(block, tids.size() - off);
    run(tids.data() + off, n, got->data() + off);
  }
  for (size_t i = 0; i < tids.size(); ++i) {
    if (expect[i] != (*got)[i]) {
      std::fprintf(stderr,
                   "PARITY FAILURE: %s block=%zu tid=%u scalar=%.17g "
                   "%s=%.17g\n",
                   name.c_str(), block, tids[i], expect[i], path, (*got)[i]);
      return false;
    }
  }
  return true;
}

struct Row {
  std::string function;
  size_t block_size = 0;
  double scalar_mtps = 0.0;  ///< million tuples scored / second
  double batch_mtps = 0.0;
  double fused_mtps = 0.0;  ///< specialized kernel, scan-order stream
  double speedup = 0.0;     ///< batch vs scalar (the historical column)
  double fused_vs_batch = 0.0;
};

struct OfferRow {
  int k = 0;
  double offer_mtps = 0.0;
  double offer_batch_mtps = 0.0;
  double speedup = 0.0;
};

struct PipelineRow {
  std::string function;
  double legacy_mtps = 0.0;  ///< row-at-a-time predicate + batch score
  double fused_mtps = 0.0;   ///< FusedScorer: filter/score/threshold fused
  double speedup = 0.0;
};

/// Floor on fused-vs-batch speedup at block 1024, enforced under --smoke.
/// Generous (roughly half the measured steady-state ratios) so shared CI
/// runners pass, but tight enough that losing a dense kernel to a codegen
/// or dispatch regression fails loudly.
double SmokeFloor(const std::string& function) {
  if (function == "constrained_sum") return 2.0;
  return 1.5;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  SyntheticSpec spec;
  spec.num_rows = flags.rows;
  spec.num_sel_dims = 2;
  spec.cardinality = 8;
  spec.num_rank_dims = kRankDims;
  spec.seed = flags.seed;
  Table table = GenerateSynthetic(spec);

  // Tuple stream: every tid once, scrambled, so block starts are not
  // cache-aligned runs — the access pattern of a real retrieve step.
  Rng rng(31);
  std::vector<Tid> tids(table.num_rows());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) tids[t] = t;
  for (size_t i = tids.size() - 1; i > 0; --i) {
    std::swap(tids[i], tids[rng.UniformInt(i + 1)]);
  }

  // Scan-order stream for the fused column: every scan call site feeds the
  // kernels consecutive tid runs, which is what unlocks the dense
  // (vectorized) loops.
  std::vector<Tid> scan_tids(table.num_rows());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
    scan_tids[t] = t;
  }

  const std::vector<double> lin_w = {0.4, 0.3, 0.2, 0.1};
  const std::vector<double> quad_w = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> quad_t = {0.2, 0.4, 0.6, 0.8};
  const std::vector<double> l1_w = {1.0, 0.5, 0.25, 0.125};
  const std::vector<double> l1_t = {0.5, 0.5, 0.5, 0.5};
  const std::vector<double> sq_w = {2.0, -1.0, -1.0, 0.5};
  std::vector<Subject> funcs;
  funcs.push_back({"linear", std::make_shared<LinearFunction>(lin_w),
                   LinearLoop(lin_w, false)});
  funcs.push_back({"quadratic",
                   std::make_shared<QuadraticDistance>(quad_w, quad_t),
                   QuadraticLoop(quad_w, quad_t)});
  funcs.push_back({"l1", std::make_shared<L1Distance>(l1_w, l1_t),
                   L1Loop(l1_w, l1_t)});
  funcs.push_back({"squared_linear", std::make_shared<SquaredLinear>(sq_w),
                   LinearLoop(sq_w, true)});
  funcs.push_back({"general_ab", std::make_shared<GeneralAB>(kRankDims, 0, 1),
                   GeneralABLoop(0, 1)});
  funcs.push_back(
      {"constrained_sum",
       std::make_shared<ConstrainedSum>(kRankDims, 0, 1, 0.25, 0.75),
       ConstrainedSumLoop(0, 1, 0.25, 0.75)});

  const size_t block_sizes[] = {64, 256, 1024, 4096};
  std::vector<Row> rows;
  std::vector<double> scalar_out(tids.size());
  std::vector<double> batch_out(tids.size());
  std::vector<double> fused_out(tids.size());
  std::vector<double> point;
  double sink = 0.0;
  bool smoke_failed = false;

  for (const auto& [name, f, batch] : funcs) {
    kernels::BlockEvaluator eval(table, *f);
    if (!eval.fused()) {
      std::fprintf(stderr, "DISPATCH FAILURE: %s has no fused kernel\n",
                   name.c_str());
      return 1;
    }
    setenv("RANKCUBE_FUSED_KERNELS", "0", 1);
    kernels::BlockEvaluator generic(table, *f);
    unsetenv("RANKCUBE_FUSED_KERNELS");
    for (size_t block : block_sizes) {
      // One warm pass each, also used as a correctness check: the reference
      // loop and the generic loop must reproduce the scalar scores bit for
      // bit on the scrambled stream, and so must the fused kernel on the
      // scan-order stream.
      ScalarScore(table, *f, tids.data(), tids.size(), &point,
                  scalar_out.data());
      if (!SameScores("batch", name, tids, block, scalar_out, &batch_out,
                      [&](const Tid* t, size_t n, double* o) {
                        batch(table, t, n, o);
                      }) ||
          !SameScores("generic", name, tids, block, scalar_out, &fused_out,
                      [&](const Tid* t, size_t n, double* o) {
                        generic.Score(t, n, o);
                      })) {
        return 1;
      }
      ScalarScore(table, *f, scan_tids.data(), scan_tids.size(), &point,
                  scalar_out.data());
      if (!SameScores("fused", name, scan_tids, block, scalar_out,
                      &fused_out, [&](const Tid* t, size_t n, double* o) {
                        eval.Score(t, n, o);
                      })) {
        return 1;
      }

      // Best of N trials per path: the minimum is the least-disturbed
      // measurement on a shared machine.
      double scalar_ms = kInfScore;
      double batch_ms = kInfScore;
      double fused_ms = kInfScore;
      for (int trial = 0; trial < flags.trials; ++trial) {
        Stopwatch watch;
        for (int rep = 0; rep < flags.reps; ++rep) {
          for (size_t off = 0; off < tids.size(); off += block) {
            size_t n = std::min(block, tids.size() - off);
            ScalarScore(table, *f, tids.data() + off, n, &point,
                        scalar_out.data() + off);
          }
          sink += scalar_out[0];
        }
        scalar_ms = std::min(scalar_ms, watch.ElapsedMs());

        watch.Restart();
        for (int rep = 0; rep < flags.reps; ++rep) {
          for (size_t off = 0; off < tids.size(); off += block) {
            size_t n = std::min(block, tids.size() - off);
            batch(table, tids.data() + off, n, batch_out.data() + off);
          }
          sink += batch_out[0];
        }
        batch_ms = std::min(batch_ms, watch.ElapsedMs());

        watch.Restart();
        for (int rep = 0; rep < flags.reps; ++rep) {
          for (size_t off = 0; off < scan_tids.size(); off += block) {
            size_t n = std::min(block, scan_tids.size() - off);
            eval.Score(scan_tids.data() + off, n, fused_out.data() + off);
          }
          sink += fused_out[0];
        }
        fused_ms = std::min(fused_ms, watch.ElapsedMs());
      }

      const double scored =
          static_cast<double>(tids.size()) * flags.reps / 1e6;
      Row row;
      row.function = name;
      row.block_size = block;
      row.scalar_mtps = scored / (scalar_ms / 1000.0);
      row.batch_mtps = scored / (batch_ms / 1000.0);
      row.fused_mtps = scored / (fused_ms / 1000.0);
      row.speedup = scalar_ms / batch_ms;
      row.fused_vs_batch = batch_ms / fused_ms;
      rows.push_back(row);
      std::printf(
          "%-16s block=%-5zu scalar=%8.1f Mt/s  batch=%8.1f Mt/s  "
          "fused=%8.1f Mt/s  fused/batch=%5.2fx\n",
          name.c_str(), block, row.scalar_mtps, row.batch_mtps,
          row.fused_mtps, row.fused_vs_batch);

      if (flags.smoke && block == 1024 &&
          row.fused_vs_batch < SmokeFloor(name)) {
        std::fprintf(stderr,
                     "SMOKE FAILURE: %s fused/batch %.2fx below floor "
                     "%.2fx at block 1024\n",
                     name.c_str(), row.fused_vs_batch, SmokeFloor(name));
        smoke_failed = true;
      }
    }
  }

  // Threshold-aware OfferBatch vs per-tuple Offer, on linear scores: once
  // the heap saturates, whole blocks fail the S_k bound with n compares.
  std::vector<OfferRow> offer_rows;
  {
    funcs.front().batch(table, tids.data(), tids.size(), batch_out.data());
    for (int k : {10, 100}) {
      double offer_ms = kInfScore;
      double batch_ms = kInfScore;
      double kth = 0.0;
      double kth_batch = 0.0;
      for (int trial = 0; trial < flags.trials; ++trial) {
        Stopwatch watch;
        for (int rep = 0; rep < flags.reps; ++rep) {
          TopKHeap heap(k);
          for (size_t i = 0; i < tids.size(); ++i) {
            heap.Offer(tids[i], batch_out[i]);
          }
          kth = heap.KthScore();
        }
        offer_ms = std::min(offer_ms, watch.ElapsedMs());

        watch.Restart();
        for (int rep = 0; rep < flags.reps; ++rep) {
          TopKHeap heap(k);
          for (size_t off = 0; off < tids.size(); off += 1024) {
            size_t n = std::min<size_t>(1024, tids.size() - off);
            heap.OfferBatch(tids.data() + off, batch_out.data() + off, n);
          }
          kth_batch = heap.KthScore();
        }
        batch_ms = std::min(batch_ms, watch.ElapsedMs());
      }
      if (kth != kth_batch) {
        std::fprintf(stderr, "PARITY FAILURE: OfferBatch k=%d\n", k);
        return 1;
      }

      const double offered =
          static_cast<double>(tids.size()) * flags.reps / 1e6;
      OfferRow row;
      row.k = k;
      row.offer_mtps = offered / (offer_ms / 1000.0);
      row.offer_batch_mtps = offered / (batch_ms / 1000.0);
      row.speedup = offer_ms / batch_ms;
      offer_rows.push_back(row);
      std::printf(
          "offer k=%-4d       scalar=%8.1f Mt/s  batch=%8.1f Mt/s  "
          "speedup=%5.2fx\n",
          k, row.offer_mtps, row.offer_batch_mtps, row.speedup);
    }
  }

  // Whole-pipeline section: predicate filter + score + threshold offer over
  // the full relation (the table-scan shape), fused vs a row-at-a-time
  // filter feeding the reference loops in blocks of 1024. One equality
  // predicate at ~1/8 selectivity; k=10.
  std::vector<PipelineRow> pipeline_rows;
  {
    const std::vector<Predicate> preds = {{0, 3}};
    const int k = 10;
    const size_t n_rows = table.num_rows();
    std::vector<Tid> block_tids;
    std::vector<double> block_scores;
    ExecStats pipe_stats;
    for (const auto& [name, f, batch] : funcs) {
      double legacy_ms = kInfScore;
      double fused_ms = kInfScore;
      std::vector<ScoredTuple> legacy_top, fused_top;
      for (int trial = 0; trial < flags.trials; ++trial) {
        Stopwatch watch;
        for (int rep = 0; rep < flags.reps; ++rep) {
          TopKHeap heap(k);
          block_tids.clear();
          for (Tid t = 0; t < static_cast<Tid>(n_rows); ++t) {
            bool ok = true;
            for (const auto& p : preds) {
              if (table.sel(t, p.dim) != p.value) {
                ok = false;
                break;
              }
            }
            if (!ok) continue;
            block_tids.push_back(t);
            if (block_tids.size() >= 1024) {
              block_scores.resize(block_tids.size());
              batch(table, block_tids.data(), block_tids.size(),
                    block_scores.data());
              heap.OfferBatch(block_tids.data(), block_scores.data(),
                              block_tids.size());
              block_tids.clear();
            }
          }
          if (!block_tids.empty()) {
            block_scores.resize(block_tids.size());
            batch(table, block_tids.data(), block_tids.size(),
                  block_scores.data());
            heap.OfferBatch(block_tids.data(), block_scores.data(),
                            block_tids.size());
            block_tids.clear();
          }
          legacy_top = heap.Sorted();
        }
        legacy_ms = std::min(legacy_ms, watch.ElapsedMs());

        watch.Restart();
        for (int rep = 0; rep < flags.reps; ++rep) {
          TopKHeap heap(k);
          kernels::FusedScorer scorer(table, *f, preds, &heap, &pipe_stats);
          for (Tid t = 0; t < static_cast<Tid>(n_rows); ++t) scorer.Add(t);
          scorer.Flush();
          fused_top = heap.Sorted();
        }
        fused_ms = std::min(fused_ms, watch.ElapsedMs());
      }
      if (legacy_top != fused_top) {
        std::fprintf(stderr, "PARITY FAILURE: pipeline %s\n", name.c_str());
        return 1;
      }

      const double processed = static_cast<double>(n_rows) * flags.reps / 1e6;
      PipelineRow row;
      row.function = name;
      row.legacy_mtps = processed / (legacy_ms / 1000.0);
      row.fused_mtps = processed / (fused_ms / 1000.0);
      row.speedup = legacy_ms / fused_ms;
      pipeline_rows.push_back(row);
      std::printf(
          "pipeline %-16s legacy=%8.1f Mt/s  fused=%8.1f Mt/s  "
          "speedup=%5.2fx\n",
          name.c_str(), row.legacy_mtps, row.fused_mtps, row.speedup);
    }
  }

  std::FILE* out = std::fopen(flags.json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.json.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"scoring_hotpath\",\n"
               "  \"rows\": %llu,\n  \"seed\": %llu,\n  \"reps\": %d,\n"
               "  \"trials\": %d,\n"
               "  \"rank_dims\": %d,\n  \"results\": [\n",
               static_cast<unsigned long long>(flags.rows),
               static_cast<unsigned long long>(flags.seed), flags.reps,
               flags.trials, kRankDims);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"function\": \"%s\", \"block_size\": %zu, "
                 "\"scalar_mtuples_per_s\": %.1f, "
                 "\"batch_mtuples_per_s\": %.1f, "
                 "\"fused_mtuples_per_s\": %.1f, \"speedup\": %.3f, "
                 "\"fused_vs_batch\": %.3f}%s\n",
                 r.function.c_str(), r.block_size, r.scalar_mtps,
                 r.batch_mtps, r.fused_mtps, r.speedup, r.fused_vs_batch,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"offer\": [\n");
  for (size_t i = 0; i < offer_rows.size(); ++i) {
    const OfferRow& r = offer_rows[i];
    std::fprintf(out,
                 "    {\"k\": %d, \"offer_mtuples_per_s\": %.1f, "
                 "\"offer_batch_mtuples_per_s\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 r.k, r.offer_mtps, r.offer_batch_mtps, r.speedup,
                 i + 1 < offer_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"pipeline\": [\n");
  for (size_t i = 0; i < pipeline_rows.size(); ++i) {
    const PipelineRow& r = pipeline_rows[i];
    std::fprintf(out,
                 "    {\"function\": \"%s\", "
                 "\"legacy_mtuples_per_s\": %.1f, "
                 "\"fused_mtuples_per_s\": %.1f, \"speedup\": %.3f}%s\n",
                 r.function.c_str(), r.legacy_mtps, r.fused_mtps, r.speedup,
                 i + 1 < pipeline_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (sink=%g)\n", flags.json.c_str(), sink);
  if (smoke_failed) {
    std::fprintf(stderr, "smoke thresholds not met\n");
    return 1;
  }
  return 0;
}

}  // namespace rankcube

int main(int argc, char** argv) { return rankcube::Main(argc, argv); }
