// Sharded, byte-budgeted LRU cache of top-k results, keyed on
// (canonical query, epoch tag).
//
// The epoch tag is the invalidation mechanism, and it is exact and free:
// every mutation bumps the owning table's epoch (storage/delta_store.h),
// tids are never reused, and compaction preserves the epoch — so an entry
// whose tag equals the current tag was computed against byte-identical
// table state and its tuples are still the exact answer. No write-path
// hook exists at all; a stale entry is detected (tag mismatch) and erased
// lazily at the next lookup under its key. Callers choose the tag:
// RankCubeDb uses the single table epoch, PartitionedDb folds the
// (seq:epoch) pairs of every partition the query could possibly read —
// giving per-partition invalidation precision for free (a write to a
// partition the key's predicates exclude never changes the tag).
//
// Entries may hold MORE than the k tuples their key asked for (overfetch):
// the first k are served on an exact hit, and the full prefix plus the
// recorded exclusion bound form the candidate set for the certified
// near-duplicate-function reuse implemented in rank_cube_db.cc. Shards are
// selected by the SIBLING key, so all entries eligible to serve as
// candidates for one query live in one shard and FindSibling is a single
// lock acquisition.
//
// Thread-safety: per-shard mutexes; safe for concurrent Lookup/Insert from
// many reader threads (the cache is populated on the READ path — under
// RankCubeDb's shared reader gate — so readers race each other, never a
// writer: writers hold the gate exclusively and merely advance the epoch).
#ifndef RANKCUBE_CACHE_RESULT_CACHE_H_
#define RANKCUBE_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/query_key.h"
#include "engine/structure_info.h"
#include "func/query.h"
#include "func/ranking_function.h"

namespace rankcube {

struct ResultCacheOptions {
  /// Total byte budget across shards; 0 disables the cache entirely (the
  /// library default — existing callers keep deterministic page accounting
  /// unless they opt in).
  size_t max_bytes = 0;
  /// Shard count (power of two); fixed at construction.
  size_t shards = 16;
  /// On a cacheable miss the query executes with k' = overfetch * k and
  /// caches the deeper prefix, so near-duplicate functions have a
  /// candidate set worth re-ranking. 1.0 = no overfetch. 1.5x already buys
  /// the certification headroom near-duplicate reuse needs (the bound gap
  /// F_k' - F_k dwarfs the tiny perturbation deltas worth certifying)
  /// while keeping the miss penalty — the deeper execution — small;
  /// deeper overfetch pays more per miss than the extra reuse recovers.
  double overfetch = 1.5;
};

/// One cached answer: the top-k' prefix (ascending score) of the matching
/// rows plus everything the certified-reuse check needs.
struct CachedResult {
  std::vector<ScoredTuple> tuples;
  /// Per-tuple home partition (parallel to `tuples`); empty for
  /// single-table entries.
  std::vector<std::string> partitions;
  /// Every matching live row NOT in `tuples` scores >= this under the
  /// entry's own function (+inf when `complete`).
  double exclusion_bound = kInfScore;
  /// True when `tuples` holds ALL matching rows (the heap never filled).
  bool complete = false;
  /// The entry's ranking-function tree, for the reuse delta bound.
  ScoreExprPtr expr;
  /// The plan that produced the entry; served back on hits.
  std::shared_ptr<const PlanInfo> plan;

  size_t ApproxBytes() const;
};

struct ResultCacheStats {
  uint64_t hits = 0;        ///< exact full-key hits
  uint64_t reuse_hits = 0;  ///< certified near-duplicate reuses
  uint64_t misses = 0;      ///< cacheable queries that executed in full
  uint64_t insertions = 0;
  uint64_t invalidations = 0;  ///< stale entries erased on lookup
  uint64_t evictions = 0;      ///< entries dropped by the byte budget
  uint64_t entries = 0;        ///< current
  uint64_t bytes = 0;          ///< current
  uint64_t max_bytes = 0;      ///< configured budget (0 = disabled)

  /// "<prefix><counter>=<value>" lines, one per counter: the CACHE wire
  /// payload, and with prefix "cache_" the result-cache block of STATS.
  std::string ToString(const std::string& prefix = "") const;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = ResultCacheOptions());

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const {
    return max_bytes_.load(std::memory_order_relaxed) > 0;
  }
  double overfetch() const { return options_.overfetch; }

  /// Exact hit: full key + identical epoch tag. Counts a hit and refreshes
  /// LRU on success; erases (and counts an invalidation for) a same-key
  /// entry with a stale tag. Does NOT count a miss — the caller decides
  /// between RecordReuseHit and RecordMiss after trying sibling reuse.
  std::optional<CachedResult> Lookup(const CanonicalQuery& key,
                                     const std::string& epoch_tag);

  /// Current-tag entries under the same sibling key with a DIFFERENT
  /// function, to serve as reuse candidate sets. One sibling key can hold
  /// several distinct functions (everything sharing predicates and k), so
  /// the caller tries each in turn: ordered by candidate-set size
  /// descending (deep overfetched prefixes certify near-duplicates;
  /// reuse-derived k-tuple entries rarely can), capped at
  /// `max_candidates`. Stale siblings encountered are erased.
  std::vector<CachedResult> FindSiblings(const CanonicalQuery& key,
                                         const std::string& epoch_tag,
                                         size_t max_candidates = 8);

  /// True when some entry under this sibling key has EVER been inserted
  /// (even if since evicted or invalidated). Drives adaptive overfetch:
  /// deep prefixes only pay off for query families that recur, so the
  /// first sighting of a family — and every one-off query — executes at
  /// plain k, and the re-cache after a repeat/write overfetches.
  bool FamilySeen(const CanonicalQuery& key);

  /// Inserts/replaces the entry under the key's full key. Entries larger
  /// than a shard's budget are not cached.
  void Insert(const CanonicalQuery& key, const std::string& epoch_tag,
              CachedResult value);

  void RecordReuseHit() {
    reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  void Clear();
  /// Adjusts the byte budget (0 disables); evicts immediately if shrunk.
  void Resize(size_t max_bytes);

  ResultCacheStats Stats() const;

 private:
  struct Node {
    std::string full_key;
    std::string sibling_key;
    std::string epoch_tag;
    CachedResult value;
    size_t bytes = 0;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Node> lru;
    std::unordered_map<std::string, std::list<Node>::iterator> by_key;
    /// sibling key -> full keys currently cached under it.
    std::unordered_map<std::string, std::set<std::string>> siblings;
    /// Hashes of every sibling key ever inserted (bounded; heuristic only
    /// — a false "seen" merely overfetches one miss, a false "unseen"
    /// merely delays the deep prefix by one occurrence).
    std::unordered_set<uint64_t> families_seen;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& sibling_key);
  size_t ShardBudget() const {
    return max_bytes_.load(std::memory_order_relaxed) / shards_.size();
  }
  /// Must hold shard.mu. Erases the node at `it`.
  void EraseLocked(Shard& shard, std::list<Node>::iterator it);
  /// Must hold shard.mu. Evicts LRU tail until the shard fits `budget`.
  void EvictLocked(Shard& shard, size_t budget);

  ResultCacheOptions options_;
  std::atomic<size_t> max_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> reuse_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace rankcube

#endif  // RANKCUBE_CACHE_RESULT_CACHE_H_
