#include "storage/io_session.h"

#include <chrono>
#include <sstream>
#include <thread>

namespace rankcube {

uint64_t IoSession::TotalLogical() const {
  uint64_t t = 0;
  for (const auto& s : stats_) t += s.logical;
  return t;
}

uint64_t IoSession::TotalPhysical() const {
  uint64_t t = 0;
  for (const auto& s : stats_) t += s.physical;
  return t;
}

uint64_t IoSession::TotalDevice() const {
  uint64_t t = 0;
  for (const auto& s : stats_) t += s.device;
  return t;
}

bool IoSession::AccountingHit(uint64_t cache_key) {
  if (accounting_.empty()) {
    accounting_.resize(store_->num_shards());
  }
  return accounting_[PageStore::ShardHash(cache_key) % accounting_.size()]
      .AdmitOrHit(cache_key, store_->shard_capacity());
}

void IoSession::SimulateWait(uint64_t pages) const {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<uint64_t>(store_->read_latency_us()) * pages));
}

std::string IoSession::StatsString() const {
  std::ostringstream os;
  for (int c = 0; c < static_cast<int>(IoCategory::kNumCategories); ++c) {
    const IoStats& s = stats_[c];
    if (s.logical == 0) continue;
    os << IoCategoryName(static_cast<IoCategory>(c)) << "=" << s.physical
       << "/" << s.logical << " ";
  }
  return os.str();
}

}  // namespace rankcube
