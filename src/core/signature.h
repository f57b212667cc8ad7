// The signature measure (Ch4): for one cuboid cell, a tree of bit arrays
// mirroring the R-tree partition — bit b of node n is 1 iff the b-th child
// subtree (or leaf entry) contains a tuple of the cell. Nodes are addressed
// by SID: the path <p0..p_{l-1}> maps to sum p_i (M+1)^(l-1-i) (§4.2.1).
//
// One form serves queries and storage accounting: each node keeps its bit
// array and the partial signature that stores it. Compress() sizes each
// node's adaptive code and cuts the nodes, in BFS order, into page-sized
// partial signatures (§4.2.2-§4.2.3).
#ifndef RANKCUBE_CORE_SIGNATURE_H_
#define RANKCUBE_CORE_SIGNATURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitmap/bitvector.h"

namespace rankcube {

using Sid = uint64_t;

/// Longest path a 64-bit SID can encode (base M + 1 >= 2).
constexpr size_t kMaxSidDepth = 64;

/// SID of a node path (1-based positions); the empty path (root) is 0.
Sid SidOfPath(const std::vector<int>& path, size_t len, int M);

/// SID of the entry at 1-based position `pos` of node `parent`: the
/// parent's path extended by one digit.
inline Sid ChildSid(Sid parent, size_t pos, int M) {
  return parent * static_cast<Sid>(M + 1) + static_cast<Sid>(pos);
}

/// Inverse of SidOfPath: writes the 1-based path of `sid` root first into
/// `path` (room for kMaxSidDepth entries) and returns its length. Every
/// digit is in 1..M, so the decoding is unique.
size_t PathOfSid(Sid sid, int M, int* path);

class Signature {
 public:
  struct NodeEntry {
    BitVector bits;
    size_t partial = SIZE_MAX;  ///< partial storing the node at Compress()

    /// Bit of the child (or leaf entry) at 1-based position `pos`.
    bool Has(int pos) const {
      const size_t bit = static_cast<size_t>(pos - 1);
      return bit < bits.size() && bits.Get(bit);
    }
  };

  explicit Signature(int M = 2) : m_(M) {}

  int M() const { return m_; }
  bool empty() const { return nodes_.empty(); }

  /// Sets every bit along `path` (creating nodes as needed).
  void SetPath(const std::vector<int>& path);

  /// Clears the leaf bit of `path`; recursively clears parent bits whose
  /// child node became all-zero (§4.2.5).
  void ClearPath(const std::vector<int>& path);

  /// Node `sid`, or nullptr when it is absent (all zero).
  const NodeEntry* Find(Sid sid) const {
    auto it = nodes_.find(sid);
    return it == nodes_.end() ? nullptr : &it->second;
  }

  /// Walks from the root toward `sid`, a node's or a tuple's SID, with one
  /// lookup per level: calls visit(node) on every node present on the way,
  /// root first and `sid`'s own node included, and stops at the first zero
  /// bit. Returns true iff every bit along the path is set (the addressed
  /// node may contain / the addressed tuple is a qualifying tuple). A set
  /// bit of an internal node always has its child node, so no node below a
  /// zero bit exists and the walk visits every node on the path there is.
  template <typename Visit>
  bool Walk(Sid sid, Visit&& visit) const;

  /// Walk without a visitor.
  bool Test(Sid sid) const {
    return Walk(sid, [](const NodeEntry&) {});
  }

  /// Sizes every node's adaptive code (AdaptiveNodeBits, without encoding)
  /// and cuts the BFS order into partial signatures of half a page each
  /// (§4.2.3); records each node's partial and the compressed and baseline
  /// (BL) sizes.
  void Compress(size_t page_size);

  /// Partial holding `sid` at the last Compress (SIZE_MAX when the node is
  /// absent ≡ zero).
  size_t PartialOf(Sid sid) const {
    const NodeEntry* node = Find(sid);
    return node == nullptr ? SIZE_MAX : node->partial;
  }
  size_t CompressedBytes() const { return (compressed_bits_ + 7) / 8; }
  size_t BaselineBytes() const { return (baseline_bits_ + 7) / 8; }

  const std::unordered_map<Sid, NodeEntry>& nodes() const { return nodes_; }

 private:
  int m_;
  std::unordered_map<Sid, NodeEntry> nodes_;
  size_t compressed_bits_ = 0;
  size_t baseline_bits_ = 0;
};

template <typename Visit>
bool Signature::Walk(Sid sid, Visit&& visit) const {
  int path[kMaxSidDepth];
  const size_t len = PathOfSid(sid, m_, path);
  Sid prefix = 0;
  for (size_t l = 0;; ++l) {
    const NodeEntry* node = Find(prefix);
    // Below a set bit only a tuple has no node of its own.
    if (node == nullptr) return l == len;
    visit(*node);
    if (l == len) return true;
    if (!node->Has(path[l])) return false;
    prefix = ChildSid(prefix, static_cast<size_t>(path[l]), m_);
  }
}

}  // namespace rankcube

#endif  // RANKCUBE_CORE_SIGNATURE_H_
