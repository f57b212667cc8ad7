// Axis-aligned boxes over the ranking dimensions. Shared by the grid
// partition (Ch3), R-tree (Ch4), and joint-state space (Ch5).
#ifndef RANKCUBE_COMMON_GEOMETRY_H_
#define RANKCUBE_COMMON_GEOMETRY_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace rankcube {

/// Closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double x) const { return lo <= x && x <= hi; }
  bool Intersects(const Interval& o) const { return lo <= o.hi && o.lo <= hi; }
  double Clamp(double x) const { return std::min(hi, std::max(lo, x)); }
  double width() const { return hi - lo; }
};

/// Axis-aligned box: one Interval per dimension.
class Box {
 public:
  Box() = default;
  explicit Box(size_t dims) : iv_(dims) {}
  explicit Box(std::vector<Interval> iv) : iv_(std::move(iv)) {}
  Box(std::initializer_list<Interval> iv) : iv_(iv) {}

  /// Box spanning [0,1]^dims (the normalized ranking domain, §3.2.2).
  static Box Unit(size_t dims) {
    Box b(dims);
    for (auto& i : b.iv_) i = {0.0, 1.0};
    return b;
  }

  /// Empty box suitable as the identity for ExpandToInclude.
  static Box EmptyFor(size_t dims) {
    Box b(dims);
    for (auto& i : b.iv_) {
      i = {std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};
    }
    return b;
  }

  size_t dims() const { return iv_.size(); }
  Interval& operator[](size_t d) { return iv_[d]; }
  const Interval& operator[](size_t d) const { return iv_[d]; }

  bool Contains(const std::vector<double>& p) const {
    assert(p.size() == iv_.size());
    for (size_t d = 0; d < iv_.size(); ++d) {
      if (!iv_[d].Contains(p[d])) return false;
    }
    return true;
  }

  bool Intersects(const Box& o) const {
    assert(o.dims() == dims());
    for (size_t d = 0; d < iv_.size(); ++d) {
      if (!iv_[d].Intersects(o.iv_[d])) return false;
    }
    return true;
  }

  void ExpandToInclude(const std::vector<double>& p) {
    assert(p.size() == iv_.size());
    for (size_t d = 0; d < iv_.size(); ++d) {
      iv_[d].lo = std::min(iv_[d].lo, p[d]);
      iv_[d].hi = std::max(iv_[d].hi, p[d]);
    }
  }

  void ExpandToInclude(const Box& o) {
    assert(o.dims() == dims());
    for (size_t d = 0; d < iv_.size(); ++d) {
      iv_[d].lo = std::min(iv_[d].lo, o.iv_[d].lo);
      iv_[d].hi = std::max(iv_[d].hi, o.iv_[d].hi);
    }
  }

  double Area() const {
    double a = 1.0;
    for (const auto& i : iv_) a *= std::max(0.0, i.width());
    return a;
  }

  std::string ToString() const {
    std::string s = "[";
    for (size_t d = 0; d < iv_.size(); ++d) {
      if (d) s += " x ";
      s += "(" + std::to_string(iv_[d].lo) + "," + std::to_string(iv_[d].hi) +
           ")";
    }
    return s + "]";
  }

 private:
  std::vector<Interval> iv_;
};

}  // namespace rankcube

#endif  // RANKCUBE_COMMON_GEOMETRY_H_
