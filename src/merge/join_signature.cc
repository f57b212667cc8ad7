#include "merge/join_signature.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"

namespace rankcube {
namespace {

constexpr size_t kPageBits = 4096 * 8;  ///< P: state-signature size budget
constexpr int kMaxHashes = 8;           ///< k-bar of §5.3.1

}  // namespace

JoinSignature::JoinSignature(std::vector<const MergeIndex*> indices)
    : indices_(std::move(indices)) {
  Stopwatch watch;
  const size_t m = indices_.size();
  bases_.resize(m);
  for (size_t i = 0; i < m; ++i) bases_[i] = indices_[i]->fanout();

  // Tuple-oriented construction (§5.3.2): one pass per level over all
  // tuples' node paths, collecting the non-empty child coordinates of every
  // non-leaf state.
  std::vector<std::vector<std::vector<int>>> paths(m);
  size_t num_tuples = 0;
  size_t max_depth = 0;
  for (size_t i = 0; i < m; ++i) {
    paths[i] = indices_[i]->TupleNodePaths();
    num_tuples = std::max(num_tuples, paths[i].size());
    // Balanced index: any *stored* tuple's depth is everyone's depth. Path
    // arrays are indexed by tid, and tombstoned tids hold empty paths —
    // skip those (tid 0 being deleted must not zero the signature).
    for (const auto& p : paths[i]) {
      if (p.empty()) continue;
      max_depth = std::max(max_depth, p.size());
      break;
    }
  }

  // Gather raw coordinate sets first (exact), then finalize representation.
  std::unordered_map<StateKey, std::unordered_set<uint64_t>, StateKeyHash> raw;
  std::vector<std::vector<int>> prefix(m);
  std::vector<int> coords(m);
  static const std::vector<int> kNoPath;
  for (Tid t = 0; t < num_tuples; ++t) {
    for (size_t i = 0; i < m; ++i) prefix[i].clear();
    for (size_t level = 0; level < max_depth; ++level) {
      bool any = false;
      for (size_t i = 0; i < m; ++i) {
        const auto& p = t < paths[i].size() ? paths[i][t] : kNoPath;
        if (level < p.size()) {
          coords[i] = p[level];
          any = true;
        } else {
          coords[i] = 0;  // exhausted: the leaf joins as itself
        }
      }
      if (!any) break;
      raw[MakeStateKey(prefix)].insert(CoordCode(coords, bases_));
      for (size_t i = 0; i < m; ++i) {
        const auto& p = t < paths[i].size() ? paths[i][t] : kNoPath;
        if (level < p.size()) prefix[i].push_back(p[level]);
      }
    }
  }

  // Finalize: dense bit array when the child-state space fits a page,
  // otherwise a bloom filter with b = min(P, k*ne/ln2) (§5.3.1).
  uint64_t card = 1;
  bool overflow = false;
  for (size_t i = 0; i < m; ++i) {
    card *= static_cast<uint64_t>(bases_[i] + 1);
    if (card > (1ull << 40)) overflow = true;
  }
  for (auto& [key, codes] : raw) {
    StateSig sig;
    if (!overflow && card <= kPageBits) {
      BitVector bits(static_cast<size_t>(card), false);
      for (uint64_t c : codes) bits.Set(static_cast<size_t>(c), true);
      sig.bits = std::move(bits);
      sig.exact = true;
    } else {
      size_t ne = codes.size();
      size_t b = std::min<size_t>(
          kPageBits,
          static_cast<size_t>(std::ceil(kMaxHashes * ne / std::log(2.0))));
      BloomFilter bloom(std::max<size_t>(64, b),
                        BloomFilter::OptimalHashes(b, ne, kMaxHashes));
      for (uint64_t c : codes) bloom.Insert(c);
      sig.bits = std::move(bloom);
      sig.exact = false;
    }
    sigs_.emplace(key, std::move(sig));
  }
  construction_ms_ = watch.ElapsedMs();
}

bool JoinSignature::ChildMayBeNonEmpty(const StateKey& key,
                                       const std::vector<int>& coords) const {
  auto it = sigs_.find(key);
  if (it == sigs_.end()) return false;  // parent itself is empty
  uint64_t code = CoordCode(coords, bases_);
  if (it->second.exact) {
    const BitVector& bits = std::get<BitVector>(it->second.bits);
    return code < bits.size() && bits.Get(static_cast<size_t>(code));
  }
  return std::get<BloomFilter>(it->second.bits).MayContain(code);
}

size_t JoinSignature::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, sig] : sigs_) {
    bytes += key.flat.size() * 2 + 16;  // key + index entry
    bytes += sig.exact ? std::get<BitVector>(sig.bits).SizeBytes()
                       : std::get<BloomFilter>(sig.bits).SizeBytes();
  }
  return bytes;
}

}  // namespace rankcube
