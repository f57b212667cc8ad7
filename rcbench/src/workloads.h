// The three workloads of the benchmark. Each runs from one process,
// generates its inputs from the seed, sets up before timing, measures a
// closed loop for the requested time in whole rounds, checks every answer,
// and fills an Outcome with its end-to-end figures (untraced) or its
// per-layer figures (traced).
#ifndef RCBENCH_WORKLOADS_H_
#define RCBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "planner/rank_cube_db.h"

namespace rcbench {

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run inside the checkout (data directories);
  /// removed when the run ends.
  std::string scratch_dir;
  /// Where the traced run writes its spans.
  std::string spans_path;
};

Outcome RunAdhocOlap(const RunArgs& args);
Outcome RunDashboardWire(const RunArgs& args);
Outcome RunWindowIngest(const RunArgs& args);

/// Runs `make` `times` times, destroying each result before the next
/// starts, and records the median duration as setup_s. Returns the last.
template <typename T, typename Make>
std::unique_ptr<T> SetUp(Outcome& out, int times, Make&& make) {
  std::unique_ptr<T> made;
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    made.reset();
    int64_t t0 = NowNs();
    made = make();
    secs.push_back(SecondsSince(t0));
  }
  out.Set("setup_s", Median(secs), "s", secs.size());
  return made;
}

/// cache.hit_rate and cache.reuse_rate: exact hits and certified reuses
/// over the cacheable queries between two snapshots of a result cache.
inline void CacheRates(const rankcube::ResultCacheStats& before,
                       const rankcube::ResultCacheStats& after, Outcome& out) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t reuses = after.reuse_hits - before.reuse_hits;
  const uint64_t cacheable = hits + reuses + after.misses - before.misses;
  const double n = static_cast<double>(std::max<uint64_t>(cacheable, 1));
  out.Set("cache.hit_rate", static_cast<double>(hits) / n, "share", cacheable);
  out.Set("cache.reuse_rate", static_cast<double>(reuses) / n, "share",
          cacheable);
}

/// storage.buffer_hit_rate: 1 - device/logical page reads of the queries
/// between two snapshots of a db.
inline void BufferHitRate(const rankcube::DbStats& before,
                          const rankcube::DbStats& after, Outcome& out) {
  const uint64_t logical = after.pages_logical - before.pages_logical;
  const uint64_t device = after.pages_device - before.pages_device;
  out.Set("storage.buffer_hit_rate",
          logical == 0 ? 0.0
                       : 1.0 - static_cast<double>(device) /
                                   static_cast<double>(logical),
          "share", logical);
}

/// trace.overhead_pct: the traced pass's query p50 over the untraced one's.
inline void TraceOverhead(const std::vector<double>& plain_ns,
                          const std::vector<double>& traced_ns, Outcome& out) {
  out.Set("trace.overhead_pct",
          100.0 * (Median(traced_ns) / Median(plain_ns) - 1.0), "%",
          traced_ns.size());
}

}  // namespace rcbench

#endif  // RCBENCH_WORKLOADS_H_
