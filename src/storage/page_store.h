// Shared, thread-safe half of the simulated block device. The thesis
// evaluates methods by execution time and by the number of (4 KB) disk-block
// accesses; every structure in this repository (tables, B+-trees, R-trees,
// cuboids, base-block tables, signatures, join-signatures) routes page
// access through the storage layer so those counts can be reported exactly.
//
// The storage layer is split so many queries can run concurrently:
//  * PageStore (this file)  — immutable page geometry plus an optional LRU
//    buffer cache, sharded with per-shard mutexes so concurrent queries can
//    probe it without serializing on one lock. One PageStore is shared by
//    every structure and every query over a dataset.
//  * IoSession (io_session.h) — per-query access counters. Each query (or
//    worker thread) owns exactly one session; sessions are never shared
//    across threads, which is what makes their counters race-free.
//
// The optional cache models the node-buffering the thesis assumes ("many
// index implementations buffer the previously retrieved index nodes",
// §5.1.3).
#ifndef RANKCUBE_STORAGE_PAGE_STORE_H_
#define RANKCUBE_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace rankcube {

class FilePageStore;

/// Which subsystem a page belongs to; stats are reported per category.
enum class IoCategory : int {
  kTable = 0,       ///< heap pages of the base relation
  kPosting,         ///< per-dimension posting-list (non-clustered) indices
  kComposite,       ///< clustered composite index (rank-mapping baseline)
  kBTree,           ///< B+-tree nodes (Ch5 index-merge)
  kRTree,           ///< R-tree nodes (Ch4/Ch5/Ch7)
  kCuboid,          ///< ranking-cube cuboid cells / pseudo blocks (Ch3)
  kBaseBlock,       ///< base block table (Ch3)
  kSignature,       ///< partial signatures (Ch4/Ch7)
  kJoinSignature,   ///< join-signature state signatures (Ch5)
  kNumCategories,
};

/// Returns a short printable name ("rtree", "signature", ...).
const char* IoCategoryName(IoCategory cat);

/// Per-category access counters. Owned by an IoSession (single-threaded);
/// never shared between queries.
///
/// `physical` is *charged* I/O: misses against the session's own private
/// accounting cache (same geometry as the store's shared cache, seeded cold
/// at session birth). It depends only on the session's own access string, so
/// per-query page counts — and the page_budget verdicts derived from them —
/// are identical no matter which other queries run concurrently or in what
/// order. `device` is the hardware truth: misses against the *shared* buffer
/// cache, which is what the simulated read latency waits on and what a
/// cache-hit-rate figure should report. On a quiet store with one session
/// the two coincide; under concurrency only `device` varies with schedule.
struct IoStats {
  uint64_t logical = 0;   ///< accesses requested
  uint64_t physical = 0;  ///< accesses charged (missed the session's own
                          ///< accounting cache; schedule-independent)
  uint64_t device = 0;    ///< accesses that missed the shared buffer cache
                          ///< (actual simulated device reads)

  /// Accounting-cache hits (multi-page scans bypass the cache and add
  /// equally to both counters, so the difference is exactly the hit count).
  uint64_t hits() const { return logical - physical; }
  /// Shared-buffer-cache hits, including pages another session warmed.
  uint64_t device_hits() const { return logical - device; }
};

/// One LRU set of page keys, most recent first: a shard of the shared
/// buffer cache, and the same shard of an IoSession's accounting copy of
/// it. Not thread-safe; PageStore guards each of its shards with a mutex.
class PageLru {
 public:
  /// True when `key` is held (it becomes the most recent). Otherwise admits
  /// it, evicting the least recent key once more than `capacity` are held.
  bool AdmitOrHit(uint64_t key, size_t capacity);
  void Clear();

 private:
  std::list<uint64_t> lru_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> in_cache_;
};

/// Immutable page geometry + thread-safe sharded LRU buffer cache. Shared
/// by all structures over a dataset and by all concurrently running queries;
/// all methods are safe to call from multiple threads.
class PageStore {
 public:
  struct Options {
    size_t page_size = 4096;  ///< bytes per block (thesis default)
    size_t cache_pages = 0;   ///< LRU capacity in pages; 0 disables caching
    size_t cache_shards = 8;  ///< lock shards (clamped to >= 1)
    /// Simulated device latency per physical page read, in microseconds
    /// (0 = none). Sessions sleep this long per missed page, which makes
    /// the simulated device behave like the I/O-bound system the thesis
    /// measures (bench_common's 0.1 ms/page convention) and lets
    /// concurrent queries overlap device waits.
    uint32_t read_latency_us = 0;
  };

  PageStore() : PageStore(Options{}) {}
  explicit PageStore(Options options);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  size_t page_size() const { return options_.page_size; }
  bool cache_enabled() const { return options_.cache_pages > 0; }
  size_t cache_pages() const { return options_.cache_pages; }
  uint32_t read_latency_us() const { return options_.read_latency_us; }

  /// Cache geometry, exposed so IoSession's private accounting cache can
  /// replicate the shared cache bit-for-bit (same key, same shard mapping,
  /// same per-shard LRU capacity): a lone session then charges exactly the
  /// pages the shared cache would miss.
  size_t num_shards() const { return shards_.size(); }
  size_t shard_capacity() const { return shard_capacity_; }
  using CacheKey = uint64_t;
  static CacheKey MakeKey(IoCategory cat, uint64_t key) {
    return (static_cast<uint64_t>(cat) << 56) ^ (key & 0x00FFFFFFFFFFFFFFull);
  }
  static uint64_t ShardHash(CacheKey key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 32;
  }

  /// Probes the cache for page `key` of `cat`. Returns true on a hit (the
  /// entry is refreshed to most-recent); on a miss the page is admitted,
  /// evicting the shard's least-recently-used entry if the shard is full.
  /// Always false when caching is disabled. Thread-safe.
  bool AdmitOrHit(IoCategory cat, uint64_t key) const;

  /// Drops every cached page (does not touch any session's counters).
  void ClearCache() const;

  // --- checkpoint-file backing --------------------------------------------
  // When a durable checkpoint exists, kTable misses against the shared
  // cache stop being pure simulation: each one performs a verified pread
  // from the checkpoint file (per-page CRC + stored page index), so disk
  // corruption surfaces on the read path the moment a query touches it.
  // The heap-page key is folded onto the checkpoint's data pages — the
  // snapshot blob's geometry differs from the simulated heap's — so the
  // property delivered is "every device miss reads and verifies real
  // checkpoint bytes", not a byte-per-byte heap mapping.

  /// Attaches (or, with nullptr, detaches) the checkpoint backing. Called
  /// on open and after each checkpoint rotation; safe against concurrent
  /// readers.
  void AttachTableBacking(std::shared_ptr<const FilePageStore> backing);
  bool has_table_backing() const {
    return has_backing_.load(std::memory_order_relaxed);
  }
  /// One verified backing pread for heap page `key`; counts the read and,
  /// on CRC mismatch, latches the corruption flag (queries keep running on
  /// the in-memory relation; STATS exposes the latch).
  void ReadBackingPage(uint64_t key) const;
  uint64_t backing_reads() const {
    return backing_reads_.load(std::memory_order_relaxed);
  }
  uint64_t backing_corruptions() const {
    return backing_corruptions_.load(std::memory_order_relaxed);
  }
  bool backing_corrupt() const {
    return backing_corruptions() > 0;
  }

 private:
  struct Shard {
    std::mutex mu;  ///< guards lru
    PageLru lru;
  };

  Shard& ShardOf(CacheKey key) const;

  Options options_;
  size_t shard_capacity_ = 0;  ///< pages per shard
  mutable std::vector<Shard> shards_;

  mutable std::mutex backing_mu_;  ///< guards backing_ swap vs. readers
  std::shared_ptr<const FilePageStore> backing_;
  std::atomic<bool> has_backing_{false};
  mutable std::atomic<uint64_t> backing_reads_{0};
  mutable std::atomic<uint64_t> backing_corruptions_{0};
};

}  // namespace rankcube

#endif  // RANKCUBE_STORAGE_PAGE_STORE_H_
