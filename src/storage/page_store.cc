#include "storage/page_store.h"

#include "storage/file_page_store.h"

namespace rankcube {

const char* IoCategoryName(IoCategory cat) {
  switch (cat) {
    case IoCategory::kTable:
      return "table";
    case IoCategory::kPosting:
      return "posting";
    case IoCategory::kComposite:
      return "composite";
    case IoCategory::kBTree:
      return "btree";
    case IoCategory::kRTree:
      return "rtree";
    case IoCategory::kCuboid:
      return "cuboid";
    case IoCategory::kBaseBlock:
      return "baseblock";
    case IoCategory::kSignature:
      return "signature";
    case IoCategory::kJoinSignature:
      return "joinsig";
    default:
      return "?";
  }
}

bool PageLru::AdmitOrHit(uint64_t key, size_t capacity) {
  auto it = in_cache_.find(key);
  if (it != in_cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh
    return true;
  }
  lru_.push_front(key);
  in_cache_[key] = lru_.begin();
  if (lru_.size() > capacity) {
    in_cache_.erase(lru_.back());
    lru_.pop_back();
  }
  return false;
}

void PageLru::Clear() {
  lru_.clear();
  in_cache_.clear();
}

PageStore::PageStore(Options options) : options_(options) {
  size_t shards = options_.cache_shards > 0 ? options_.cache_shards : 1;
  // A shard needs at least one page of capacity to admit anything; with a
  // tiny cache, fewer shards keep the configured capacity exact.
  if (options_.cache_pages > 0 && shards > options_.cache_pages) {
    shards = options_.cache_pages;
  }
  options_.cache_shards = shards;
  // Round shard capacity up so the total is never below the configured
  // cache_pages (it may exceed it by at most shards - 1 pages).
  shard_capacity_ = (options_.cache_pages + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
}

PageStore::Shard& PageStore::ShardOf(CacheKey key) const {
  // Multiplicative hash over the full key; the low bits of MakeKey carry the
  // page id, the high bits the category.
  return shards_[ShardHash(key) % shards_.size()];
}

bool PageStore::AdmitOrHit(IoCategory cat, uint64_t key) const {
  if (!cache_enabled()) return false;
  CacheKey ck = MakeKey(cat, key);
  Shard& shard = ShardOf(ck);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.AdmitOrHit(ck, shard_capacity_);
}

void PageStore::ClearCache() const {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.Clear();
  }
}

void PageStore::AttachTableBacking(
    std::shared_ptr<const FilePageStore> backing) {
  std::lock_guard<std::mutex> lock(backing_mu_);
  bool attached = backing != nullptr && backing->num_data_pages() > 0;
  backing_ = std::move(backing);
  has_backing_.store(attached, std::memory_order_relaxed);
}

void PageStore::ReadBackingPage(uint64_t key) const {
  std::shared_ptr<const FilePageStore> backing;
  {
    std::lock_guard<std::mutex> lock(backing_mu_);
    backing = backing_;
  }
  if (backing == nullptr || backing->num_data_pages() == 0) return;
  std::string payload;
  backing_reads_.fetch_add(1, std::memory_order_relaxed);
  Status s = backing->ReadPage(key % backing->num_data_pages() + 1, &payload);
  if (!s.ok()) backing_corruptions_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rankcube
