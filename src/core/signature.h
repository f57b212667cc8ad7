// The signature measure (Ch4): for one cuboid cell, a tree of bit arrays
// mirroring the R-tree partition — bit b of node n is 1 iff the b-th child
// subtree (or leaf entry) contains a tuple of the cell. Nodes are addressed
// by SID: the path <p0..p_{l-1}> maps to sum p_i (M+1)^(l-1-i) (§4.2.1).
//
// One form serves queries and storage accounting: each node keeps its bit
// array and the partial signature that stores it. Compress() encodes the
// nodes adaptively and cuts them, in BFS order, into page-sized partial
// signatures (§4.2.2-§4.2.3).
#ifndef RANKCUBE_CORE_SIGNATURE_H_
#define RANKCUBE_CORE_SIGNATURE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitmap/bitvector.h"

namespace rankcube {

using Sid = uint64_t;

/// SID of a node path (1-based positions); the empty path (root) is 0.
Sid SidOfPath(const std::vector<int>& path, size_t len, int M);

class Signature {
 public:
  struct NodeEntry {
    BitVector bits;
    size_t partial = SIZE_MAX;  ///< partial storing the node at Compress()
  };

  explicit Signature(int M = 2) : m_(M) {}

  int M() const { return m_; }
  bool empty() const { return nodes_.empty(); }

  /// Sets every bit along `path` (creating nodes as needed).
  void SetPath(const std::vector<int>& path);

  /// Clears the leaf bit of `path`; recursively clears parent bits whose
  /// child node became all-zero (§4.2.5).
  void ClearPath(const std::vector<int>& path);

  /// True iff every bit along `path` is set (i.e. the addressed node/tuple
  /// may contain / is a qualifying tuple).
  bool TestPath(const std::vector<int>& path, size_t len) const;
  bool TestPath(const std::vector<int>& path) const {
    return TestPath(path, path.size());
  }

  /// Encodes every node with the adaptive codec and cuts the BFS order into
  /// partial signatures of half a page each (§4.2.3); records each node's
  /// partial and the compressed and baseline (BL) sizes.
  void Compress(size_t page_size);

  /// Partial holding `sid` at the last Compress (SIZE_MAX when the node is
  /// absent ≡ zero).
  size_t PartialOf(Sid sid) const;
  size_t CompressedBytes() const { return (compressed_bits_ + 7) / 8; }
  size_t BaselineBytes() const { return (baseline_bits_ + 7) / 8; }

  const std::unordered_map<Sid, NodeEntry>& nodes() const { return nodes_; }

 private:
  int m_;
  std::unordered_map<Sid, NodeEntry> nodes_;
  size_t compressed_bits_ = 0;
  size_t baseline_bits_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_SIGNATURE_H_
