// Shared plumbing for the figure-reproduction benchmarks. Each bench binary
// registers google-benchmark entries named after the thesis figure they
// regenerate (e.g. "Fig3.4/ranking_cube/k:10"); counters carry the paper's
// y-axes (ms per query, page accesses, states, heap sizes, bytes).
//
// Sizes are scaled to laptop defaults (DESIGN.md documents the scaling);
// override with --rows_scale=N (multiplies every T) if you want the paper's
// original sizes.
#ifndef RANKCUBE_BENCH_BENCH_COMMON_H_
#define RANKCUBE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/topk_query.h"
#include "engine/engine.h"
#include "gen/covtype.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "storage/io_session.h"

namespace rankcube::bench {

/// Global scale knob (1.0 = laptop defaults).
inline double& RowsScale() {
  static double scale = 1.0;
  return scale;
}

inline uint64_t Rows(uint64_t base) {
  return static_cast<uint64_t>(base * RowsScale());
}

/// Build-once cache shared across benchmark registrations.
template <typename T>
std::shared_ptr<T> Cached(const std::string& key,
                          const std::function<std::shared_ptr<T>()>& build) {
  static std::map<std::string, std::shared_ptr<void>> cache;
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, build()).first;
  }
  return std::static_pointer_cast<T>(it->second);
}

/// Unwraps an engine-build Result; a bench cannot run without its engine.
inline std::unique_ptr<RankingEngine> MustEngine(
    Result<std::unique_ptr<RankingEngine>> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

/// Average per-query results of running a workload through one engine.
struct WorkloadResult {
  double ms_per_query = 0.0;
  double io_per_query = 0.0;
  double sig_io_per_query = 0.0;
  double states_per_query = 0.0;
  double heap_per_query = 0.0;
  double evaluated_per_query = 0.0;
};

/// Per-query averages from accumulated totals (ExecStats::operator+= does
/// the summing; this divides once).
inline WorkloadResult AverageOver(const ExecStats& total,
                                  uint64_t physical_pages, size_t queries) {
  double n = std::max<size_t>(1, queries);
  WorkloadResult out;
  out.ms_per_query = total.time_ms / n;
  out.io_per_query = static_cast<double>(physical_pages) / n;
  out.sig_io_per_query = static_cast<double>(total.signature_pages) / n;
  out.states_per_query = static_cast<double>(total.states_generated) / n;
  out.heap_per_query = static_cast<double>(total.peak_heap) / n;
  out.evaluated_per_query = static_cast<double>(total.tuples_evaluated) / n;
  return out;
}

/// `run(query, io, stats)` executes one query charging `io`. (Legacy
/// shim for harnesses not yet on RankingEngine; prefer the engine overload.)
inline WorkloadResult RunWorkload(
    const std::vector<TopKQuery>& queries, IoSession* io,
    const std::function<void(const TopKQuery&, IoSession*, ExecStats*)>& run) {
  ExecStats total;
  uint64_t before = io->TotalPhysical();
  for (const auto& q : queries) {
    ExecStats stats;
    run(q, io, &stats);
    total += stats;
  }
  return AverageOver(total, io->TotalPhysical() - before, queries.size());
}

/// Engine path: every query goes through the unified Execute interface,
/// charging `io`. Aborts on the first error — a benchmark measuring a
/// failing engine would publish garbage.
inline WorkloadResult RunWorkload(const std::vector<TopKQuery>& queries,
                                  IoSession* io, const RankingEngine& engine) {
  ExecContext ctx;
  ctx.io = io;
  ExecStats total;
  uint64_t before = io->TotalPhysical();
  for (const TopKQuery& q : queries) {
    Result<TopKResult> r = engine.Execute(q, ctx);
    if (!r.ok()) {
      std::fprintf(stderr, "workload failed on engine '%s': %s\n",
                   engine.name().c_str(), r.status().ToString().c_str());
      std::abort();
    }
    total += r.value().stats;
  }
  return AverageOver(total, io->TotalPhysical() - before, queries.size());
}

/// Publishes a WorkloadResult on a benchmark's counters.
inline void Publish(benchmark::State& state, const WorkloadResult& r) {
  state.counters["ms_per_query"] = r.ms_per_query;
  state.counters["io_pages"] = r.io_per_query;
  state.counters["sig_pages"] = r.sig_io_per_query;
  state.counters["states"] = r.states_per_query;
  state.counters["peak_heap"] = r.heap_per_query;
  state.counters["evaluated"] = r.evaluated_per_query;
  // CPU time plus a nominal 0.1 ms per page read: the disk-weighted cost a
  // 2007-era system would observe (the thesis's time axis is I/O-bound).
  state.counters["sim_cost_ms"] = r.ms_per_query + 0.1 * r.io_per_query;
}

/// RegisterBenchmark shim accepting std::string names (older benchmark
/// releases only take const char*; the library copies the name).
template <typename Lambda>
inline ::benchmark::internal::Benchmark* Reg(const std::string& name,
                                             Lambda fn) {
  return ::benchmark::RegisterBenchmark(name.c_str(), fn);
}

/// Parses --rows_scale=N out of argv (before benchmark::Initialize).
inline void ParseScale(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--rows_scale=", 0) == 0) {
      char* end = nullptr;
      double scale = std::strtod(a.c_str() + 13, &end);
      if (end == a.c_str() + 13 || *end != '\0' || !(scale > 0.0)) {
        std::fprintf(stderr, "invalid --rows_scale value: '%s'\n",
                     a.c_str() + 13);
        std::exit(1);
      }
      RowsScale() = scale;
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return;
    }
  }
}

#define RANKCUBE_BENCH_MAIN()                         \
  int main(int argc, char** argv) {                   \
    ::rankcube::bench::ParseScale(&argc, argv);       \
    ::benchmark::Initialize(&argc, argv);             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();            \
    ::benchmark::Shutdown();                          \
    return 0;                                         \
  }

}  // namespace rankcube::bench

#endif  // RANKCUBE_BENCH_BENCH_COMMON_H_
