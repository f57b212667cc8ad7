#include "cache/result_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace rankcube {

size_t CachedResult::ApproxBytes() const {
  size_t b = sizeof(CachedResult);
  b += tuples.capacity() * sizeof(ScoredTuple);
  for (const std::string& p : partitions) b += p.size() + sizeof(std::string);
  return b;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options), max_bytes_(options.max_bytes) {
  size_t n = options_.shards == 0 ? 1 : options_.shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& sibling_key) {
  return *shards_[std::hash<std::string>{}(sibling_key) % shards_.size()];
}

void ResultCache::EraseLocked(Shard& shard, std::list<Node>::iterator it) {
  auto sib = shard.siblings.find(it->sibling_key);
  if (sib != shard.siblings.end()) {
    sib->second.erase(it->full_key);
    if (sib->second.empty()) shard.siblings.erase(sib);
  }
  shard.by_key.erase(it->full_key);
  shard.bytes -= it->bytes;
  shard.lru.erase(it);
}

void ResultCache::EvictLocked(Shard& shard, size_t budget) {
  while (shard.bytes > budget && !shard.lru.empty()) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<CachedResult> ResultCache::Lookup(const CanonicalQuery& key,
                                                const std::string& epoch_tag) {
  if (!enabled() || !key.cacheable) return std::nullopt;
  Shard& shard = ShardFor(key.sibling_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.by_key.find(key.full_key);
  if (it == shard.by_key.end()) return std::nullopt;
  if (it->second->epoch_tag != epoch_tag) {
    // Lazy exact invalidation: the table (or a relevant partition) mutated
    // since this entry was computed.
    EraseLocked(shard, it->second);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

std::vector<CachedResult> ResultCache::FindSiblings(
    const CanonicalQuery& key, const std::string& epoch_tag,
    size_t max_candidates) {
  std::vector<CachedResult> out;
  if (!enabled() || !key.cacheable) return out;
  Shard& shard = ShardFor(key.sibling_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto sib = shard.siblings.find(key.sibling_key);
  if (sib == shard.siblings.end()) return out;
  // Walk the LRU list (short — only this shard) instead of the unordered
  // key set, collecting every current-tag sibling; stale ones are erased
  // in passing.
  std::vector<const CachedResult*> found;
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->sibling_key != key.sibling_key || it->full_key == key.full_key) {
      ++it;
      continue;
    }
    if (it->epoch_tag != epoch_tag) {
      auto dead = it++;
      EraseLocked(shard, dead);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    found.push_back(&it->value);
    ++it;
  }
  // Biggest candidate set first: a deep overfetched prefix has bound
  // headroom to certify; a reuse-derived entry (k tuples, bound = its own
  // k-th score) almost never does. The stable sort keeps MRU order within
  // a size class.
  std::stable_sort(found.begin(), found.end(),
                   [](const CachedResult* a, const CachedResult* b) {
                     return a->tuples.size() > b->tuples.size();
                   });
  if (found.size() > max_candidates) found.resize(max_candidates);
  out.reserve(found.size());
  for (const CachedResult* r : found) out.push_back(*r);
  return out;
}

bool ResultCache::FamilySeen(const CanonicalQuery& key) {
  if (!enabled() || !key.cacheable) return false;
  Shard& shard = ShardFor(key.sibling_key);
  uint64_t h = std::hash<std::string>{}(key.sibling_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.families_seen.count(h) != 0;
}

void ResultCache::Insert(const CanonicalQuery& key,
                         const std::string& epoch_tag, CachedResult value) {
  if (!enabled() || !key.cacheable) return;
  Node node;
  node.full_key = key.full_key;
  node.sibling_key = key.sibling_key;
  node.epoch_tag = epoch_tag;
  node.value = std::move(value);
  node.bytes = node.value.ApproxBytes() + node.full_key.size() +
               node.sibling_key.size() + node.epoch_tag.size() + 128;
  size_t budget = ShardBudget();
  if (node.bytes > budget) return;

  Shard& shard = ShardFor(key.sibling_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Bounded family history: dropping it on overflow only costs one plain-k
  // miss per family before the deep prefix comes back.
  if (shard.families_seen.size() >= 1u << 16) shard.families_seen.clear();
  shard.families_seen.insert(std::hash<std::string>{}(key.sibling_key));
  auto it = shard.by_key.find(node.full_key);
  if (it != shard.by_key.end()) EraseLocked(shard, it->second);
  shard.lru.push_front(std::move(node));
  shard.by_key[shard.lru.front().full_key] = shard.lru.begin();
  shard.siblings[shard.lru.front().sibling_key].insert(
      shard.lru.front().full_key);
  shard.bytes += shard.lru.front().bytes;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  EvictLocked(shard, budget);
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->by_key.clear();
    shard->siblings.clear();
    shard->families_seen.clear();
    shard->bytes = 0;
  }
}

void ResultCache::Resize(size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  size_t budget = max_bytes / shards_.size();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    EvictLocked(*shard, budget);
  }
}

std::string ResultCacheStats::ToString(const std::string& prefix) const {
  std::string out;
  for (const auto& [name, value] :
       {std::pair<const char*, uint64_t>{"hits", hits},
        {"reuse_hits", reuse_hits},
        {"misses", misses},
        {"insertions", insertions},
        {"invalidations", invalidations},
        {"evictions", evictions},
        {"entries", entries},
        {"bytes", bytes},
        {"max_bytes", max_bytes}}) {
    out += prefix + name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.reuse_hits = reuse_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.max_bytes = max_bytes_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
    s.bytes += shard->bytes;
  }
  return s;
}

}  // namespace rankcube
