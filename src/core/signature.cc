#include "core/signature.h"

#include <algorithm>
#include <deque>

#include "bitmap/codec.h"

namespace rankcube {

namespace {

/// Share of a page each partial signature fills before the next one starts
/// (α in §4.2.3).
constexpr double kPartialFill = 0.5;

}  // namespace

Sid SidOfPath(const std::vector<int>& path, size_t len, int M) {
  Sid sid = 0;
  for (size_t i = 0; i < len; ++i) {
    sid = ChildSid(sid, static_cast<size_t>(path[i]), M);
  }
  return sid;
}

size_t PathOfSid(Sid sid, int M, int* path) {
  const Sid base = static_cast<Sid>(M + 1);
  size_t len = 0;
  for (; sid != 0; sid /= base) path[len++] = static_cast<int>(sid % base);
  std::reverse(path, path + len);
  return len;
}

void Signature::SetPath(const std::vector<int>& path) {
  Sid sid = 0;
  for (size_t l = 0; l < path.size(); ++l) {
    BitVector& node = nodes_[sid].bits;
    size_t bit = static_cast<size_t>(path[l] - 1);
    while (node.size() <= bit) node.PushBit(false);
    node.Set(bit, true);
    sid = ChildSid(sid, static_cast<size_t>(path[l]), m_);
  }
}

void Signature::ClearPath(const std::vector<int>& path) {
  if (path.empty()) return;
  // Clear the deepest bit, then propagate emptiness upward (§4.2.5).
  for (size_t len = path.size(); len > 0; --len) {
    Sid sid = SidOfPath(path, len - 1, m_);
    auto it = nodes_.find(sid);
    if (it == nodes_.end()) return;
    BitVector& node = it->second.bits;
    size_t bit = static_cast<size_t>(path[len - 1] - 1);
    if (bit < node.size()) node.Set(bit, false);
    if (node.PopCount() > 0) return;  // still non-empty: stop
    nodes_.erase(it);
  }
}

void Signature::Compress(size_t page_size) {
  // BL string coding (§4.2.1): ceil(log2 M) length bits + the array bits.
  const size_t lb = static_cast<size_t>(Log2Ceil(static_cast<uint64_t>(m_)));
  baseline_bits_ = 0;
  compressed_bits_ = 0;
  for (auto& [sid, node] : nodes_) {
    (void)sid;
    baseline_bits_ += lb + node.bits.size();
    node.partial = SIZE_MAX;
  }
  if (nodes_.empty()) return;

  const size_t budget_bits = std::max<size_t>(
      64, static_cast<size_t>(kPartialFill * page_size * 8));

  // BFS from the root, honoring child (bit) order.
  std::deque<Sid> queue{0};
  size_t partial = 0;
  size_t partial_bits = 0;
  while (!queue.empty()) {
    Sid sid = queue.front();
    queue.pop_front();
    auto it = nodes_.find(sid);
    if (it == nodes_.end()) continue;
    const BitVector& bits = it->second.bits;
    const size_t added = AdaptiveNodeBits(bits, m_);
    it->second.partial = partial;
    partial_bits += added;
    compressed_bits_ += added;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (!bits.Get(i)) continue;
      Sid child = ChildSid(sid, i + 1, m_);
      if (nodes_.contains(child)) queue.push_back(child);
    }
    if (partial_bits >= budget_bits) {
      ++partial;
      partial_bits = 0;
    }
  }
}

}  // namespace rankcube
