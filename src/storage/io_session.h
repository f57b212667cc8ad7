// Per-query half of the simulated block device (see page_store.h for the
// split). An IoSession charges page accesses against a shared PageStore and
// keeps the per-category logical/physical counters for exactly one query —
// or one construction pass.
//
// Contract: a session is owned by a single thread and never shared. All
// counters are plain (unsynchronized) fields. Because counters are
// session-local, "pages this phase read" is a simple snapshot difference on
// the owning thread — there is no racy delta against a globally shared
// pager.
//
// Attribution: the session runs a *private* accounting cache with exactly
// the shared cache's geometry (key, shard mapping, per-shard LRU capacity),
// seeded cold when the session is created. `physical` counts misses against
// that private cache, so a query's charged page count depends only on its
// own access string — never on which concurrent query happened to warm the
// shared cache first. That makes page_budget verdicts and per-query page
// reports deterministic across thread counts and schedules (the property
// concurrent readers and multi-tenant admission rely on). The
// shared cache still decides `device` (true simulated device reads) and the
// simulated read-latency waits, so wall-clock latency keeps the benefit of
// cross-query warmth.
#ifndef RANKCUBE_STORAGE_IO_SESSION_H_
#define RANKCUBE_STORAGE_IO_SESSION_H_

#include <array>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page_store.h"

namespace rankcube {

class IoSession {
 public:
  /// Binds the session to `store` (not owned; must outlive the session).
  explicit IoSession(const PageStore* store) : store_(store) {}

  const PageStore& store() const { return *store_; }
  size_t page_size() const { return store_->page_size(); }

  /// Record an access to page `key` of `cat`. Multi-page reads (npages > 1)
  /// are charged fully and bypass the cache (they model sequential scans).
  /// When the store simulates device latency, missed pages block the owning
  /// thread for that long.
  void Access(IoCategory cat, uint64_t key, uint64_t npages = 1) {
    IoStats& s = stats_[static_cast<int>(cat)];
    s.logical += npages;
    uint64_t charged = npages;
    uint64_t device = npages;
    if (npages == 1 && store_->cache_enabled()) {
      if (AccountingHit(PageStore::MakeKey(cat, key))) charged = 0;
      if (store_->AdmitOrHit(cat, key)) device = 0;
    }
    s.physical += charged;
    s.device += device;
    if (device > 0 && store_->read_latency_us() > 0) SimulateWait(device);
    // With a durable checkpoint attached, a single-page heap miss performs a
    // real verified pread (multi-page scans stay modeled; see page_store.h).
    if (device > 0 && npages == 1 && cat == IoCategory::kTable &&
        store_->has_table_backing()) {
      store_->ReadBackingPage(key);
    }
  }

  const IoStats& stats(IoCategory cat) const {
    return stats_[static_cast<int>(cat)];
  }
  uint64_t TotalLogical() const;
  uint64_t TotalPhysical() const;
  /// Shared-cache misses across categories: the simulated device reads this
  /// session actually waited on (schedule-dependent, unlike TotalPhysical).
  uint64_t TotalDevice() const;

  void ResetStats() { stats_.fill(IoStats{}); }

  /// One line per non-zero category; for harness output.
  std::string StatsString() const;

 private:
  /// Probe-and-admit on the private accounting cache (same geometry as the
  /// store's shared cache, session-local so no locking). Out of line: the
  /// cache-disabled hot path never pays for it.
  bool AccountingHit(uint64_t cache_key);

  /// Sleeps for `pages` worth of simulated device reads (out of line to
  /// keep <thread> out of this header's hot path).
  void SimulateWait(uint64_t pages) const;

  /// One private LRU shard mirroring PageStore::Shard, minus the mutex.
  struct AccountingShard {
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> in_cache;
  };

  const PageStore* store_;
  std::array<IoStats, static_cast<int>(IoCategory::kNumCategories)> stats_{};
  std::vector<AccountingShard> accounting_;  ///< sized lazily on first probe
};

}  // namespace rankcube

#endif  // RANKCUBE_STORAGE_IO_SESSION_H_
