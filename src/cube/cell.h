// Cuboid cell keys. A cuboid is named by a subset of selection dimensions
// (§3.2.3); a cell is an assignment of values to those dimensions, possibly
// extended with a pseudo-block id.
#ifndef RANKCUBE_CUBE_CELL_H_
#define RANKCUBE_CUBE_CELL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "func/query.h"

namespace rankcube {

/// Values of a cuboid's dimensions plus a pseudo-block id (Ch3) or 0 (Ch4).
struct CellKey {
  std::vector<int32_t> values;  ///< one per cuboid dimension, in cuboid order
  uint32_t pid = 0;

  bool operator==(const CellKey&) const = default;
};

struct CellKeyHash {
  size_t operator()(const CellKey& k) const {
    uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 0x100000001B3ull;
    };
    for (int32_t v : k.values) mix(static_cast<uint64_t>(v) + 1);
    mix(k.pid);
    return static_cast<size_t>(h);
  }
};

/// Restricts `predicates` (sorted by dim) to `dims`, producing cell values in
/// cuboid order. Returns false if some dim has no predicate.
bool ProjectPredicates(const std::vector<Predicate>& predicates,
                       const std::vector<int>& dims,
                       std::vector<int32_t>* values);

/// Hash over a sorted dimension set; keys the cuboid lookup maps of the
/// grid cube, the ranking fragments, and the signature cube.
struct DimSetHash {
  size_t operator()(const std::vector<int>& dims) const {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (int d : dims) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(d));
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace rankcube

#endif  // RANKCUBE_CUBE_CELL_H_
