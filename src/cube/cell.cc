#include "cube/cell.h"

namespace rankcube {

bool ProjectPredicates(const std::vector<Predicate>& predicates,
                       const std::vector<int>& dims,
                       std::vector<int32_t>* values) {
  values->clear();
  values->reserve(dims.size());
  for (int d : dims) {
    bool found = false;
    for (const auto& p : predicates) {
      if (p.dim == d) {
        values->push_back(p.value);
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace rankcube
