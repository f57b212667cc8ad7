// Join-signature (§5.3): for every non-leaf, non-empty joint state over a
// set of merged indices, a state-signature marking which child states are
// non-empty. Small state-signatures are exact bit arrays; oversized ones
// fall back to bloom filters (false positives possible, no false negatives,
// §5.3.1). Built tuple-oriented from per-index node paths (§5.3.2).
#ifndef RANKCUBE_MERGE_JOIN_SIGNATURE_H_
#define RANKCUBE_MERGE_JOIN_SIGNATURE_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "bitmap/bitvector.h"
#include "bitmap/bloom.h"
#include "merge/joint_state.h"
#include "merge/merge_index.h"

namespace rankcube {

class JoinSignature {
 public:
  /// Builds over the given indices (their order defines coordinate order).
  explicit JoinSignature(std::vector<const MergeIndex*> indices);

  size_t num_indices() const { return indices_.size(); }

  /// Does a state exist (i.e. is it non-empty)? Used both for child pruning
  /// and for the §5.3.3 bloom false-positive self-correction.
  bool StateExists(const StateKey& key) const {
    return sigs_.count(key) > 0;
  }

  /// May the child at `coords` (1-based; 0 = exhausted index) of the state
  /// `key` be non-empty? Exact for bit-array signatures; one-sided for
  /// bloom-compressed ones. A missing parent state means empty.
  bool ChildMayBeNonEmpty(const StateKey& key,
                          const std::vector<int>& coords) const;

  size_t SizeBytes() const;
  size_t num_states() const { return sigs_.size(); }
  double construction_ms() const { return construction_ms_; }

 private:
  struct StateSig {
    // Exact: dense bit array addressed by CoordCode. Compressed: bloom.
    std::variant<BitVector, BloomFilter> bits;
    bool exact = true;
  };

  std::vector<const MergeIndex*> indices_;
  std::vector<int> bases_;  ///< per-index fanout (coord code bases)
  std::unordered_map<StateKey, StateSig, StateKeyHash> sigs_;
  double construction_ms_ = 0.0;
};

}  // namespace rankcube

#endif  // RANKCUBE_MERGE_JOIN_SIGNATURE_H_
