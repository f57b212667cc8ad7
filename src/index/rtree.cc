#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace rankcube {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Box BoxOfPoint(const std::vector<double>& p) {
  Box b(p.size());
  for (size_t d = 0; d < p.size(); ++d) b[d] = {p[d], p[d]};
  return b;
}

double EnlargedArea(const Box& b, const Box& add) {
  Box u = b;
  u.ExpandToInclude(add);
  return u.Area();
}

}  // namespace

RTree::RTree(int dims, IoSession& io, RTreeOptions options)
    : dims_(dims) {
  // Entry = d coordinates + pointer: 8d + 4 bytes -> M = 204 (2d) / ~94 (5d)
  // at 4 KB pages, matching §4.2.2.
  max_entries_ =
      options.max_entries > 0
          ? options.max_entries
          : std::max<int>(4, static_cast<int>(io.page_size() /
                                              (8 * dims + 4)));
  min_entries_ = std::max(1, (max_entries_ * 2) / 5);
  root_ = NewNode(/*is_leaf=*/true);
}

uint32_t RTree::NewNode(bool is_leaf) {
  uint32_t id = static_cast<uint32_t>(nodes_.size());
  RTreeNode n;
  n.id = id;
  n.is_leaf = is_leaf;
  n.mbr = Box::EmptyFor(dims_);
  nodes_.push_back(std::move(n));
  parent_.push_back(id);  // self-parent marks "root / unattached"
  return id;
}

int RTree::depth() const {
  int d = 1;
  uint32_t id = root_;
  while (!nodes_[id].is_leaf) {
    id = nodes_[id].children.front();
    ++d;
  }
  return d;
}

void RTree::BulkLoadSTR(const Table& table, const std::vector<int>* dims) {
  assert(num_tuples_ == 0);
  std::vector<int> cols(dims_);
  for (int d = 0; d < dims_; ++d) cols[d] = dims ? (*dims)[d] : d;
  auto coord = [&](Tid t, int local) { return table.rank(t, cols[local]); };
  auto point_of = [&](Tid t) {
    std::vector<double> p(dims_);
    for (int d = 0; d < dims_; ++d) p[d] = coord(t, d);
    return p;
  };
  std::vector<Tid> order;
  order.reserve(table.num_live());
  for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
    if (table.is_live(t)) order.push_back(t);
  }
  const size_t n = order.size();

  // Recursive Sort-Tile: sort by dim, carve into slabs, recurse on the rest.
  const size_t leaf_cap = static_cast<size_t>(max_entries_);
  size_t num_leaves = std::max<size_t>(1, (n + leaf_cap - 1) / leaf_cap);

  struct Range {
    size_t begin, end;
    int dim;
  };
  std::vector<Range> work{{0, n, 0}};
  std::vector<Range> final_ranges;
  while (!work.empty()) {
    Range r = work.back();
    work.pop_back();
    size_t len = r.end - r.begin;
    if (r.dim >= dims_ - 1 || len <= leaf_cap) {
      std::sort(order.begin() + r.begin, order.begin() + r.end,
                [&](Tid a, Tid b) {
                  return coord(a, r.dim) < coord(b, r.dim);
                });
      final_ranges.push_back(r);
      continue;
    }
    std::sort(order.begin() + r.begin, order.begin() + r.end,
              [&](Tid a, Tid b) {
                return coord(a, r.dim) < coord(b, r.dim);
              });
    // Number of slabs along this dimension: P^(1/remaining_dims).
    double leaves_here = static_cast<double>(len) / leaf_cap;
    int remaining = dims_ - r.dim;
    size_t slabs = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(std::pow(leaves_here, 1.0 / remaining))));
    size_t per_slab = (len + slabs - 1) / slabs;
    for (size_t s = 0; s < slabs; ++s) {
      size_t b = r.begin + s * per_slab;
      if (b >= r.end) break;
      size_t e = std::min(r.end, b + per_slab);
      work.push_back({b, e, r.dim + 1});
    }
  }
  (void)num_leaves;
  // Deterministic leaf order: sort ranges by begin offset.
  std::sort(final_ranges.begin(), final_ranges.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });

  nodes_.clear();
  parent_.clear();
  std::vector<uint32_t> level;
  for (const Range& r : final_ranges) {
    for (size_t i = r.begin; i < r.end; i += leaf_cap) {
      uint32_t id = NewNode(true);
      RTreeNode& leaf = nodes_[id];
      size_t e = std::min(r.end, i + leaf_cap);
      for (size_t j = i; j < e; ++j) {
        Tid t = order[j];
        leaf.entries.push_back({t, point_of(t)});
        leaf.mbr.ExpandToInclude(leaf.entries.back().point);
      }
      level.push_back(id);
    }
  }
  if (level.empty()) level.push_back(NewNode(true));
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t i = 0; i < level.size(); i += leaf_cap) {
      uint32_t id = NewNode(false);
      RTreeNode& inner = nodes_[id];
      size_t e = std::min(level.size(), i + leaf_cap);
      for (size_t j = i; j < e; ++j) {
        inner.children.push_back(level[j]);
        parent_[level[j]] = id;
        inner.mbr.ExpandToInclude(nodes_[level[j]].mbr);
      }
      next.push_back(id);
    }
    level = std::move(next);
  }
  root_ = level.front();
  parent_[root_] = root_;

  num_tuples_ = n;
  // Indexed by tid, which can exceed the stored-tuple count once rows are
  // tombstoned.
  leaf_of_.assign(table.num_rows(), 0);
  for (const auto& node : nodes_) {
    if (!node.is_leaf) continue;
    for (const auto& e : node.entries) leaf_of_[e.tid] = node.id;
  }
}

uint32_t RTree::ChooseLeaf(const std::vector<double>& point) const {
  uint32_t id = root_;
  Box pb = BoxOfPoint(point);
  while (!nodes_[id].is_leaf) {
    const RTreeNode& n = nodes_[id];
    uint32_t best = n.children.front();
    double best_enlarge = kInf, best_area = kInf;
    for (uint32_t c : n.children) {
      double area = nodes_[c].mbr.Area();
      double enlarge = EnlargedArea(nodes_[c].mbr, pb) - area;
      if (enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best_enlarge = enlarge;
        best_area = area;
        best = c;
      }
    }
    id = best;
  }
  return id;
}

void RTree::RecomputeMbr(uint32_t id) {
  RTreeNode& n = nodes_[id];
  n.mbr = Box::EmptyFor(dims_);
  if (n.is_leaf) {
    for (const auto& e : n.entries) n.mbr.ExpandToInclude(e.point);
  } else {
    for (uint32_t c : n.children) n.mbr.ExpandToInclude(nodes_[c].mbr);
  }
}

int RTree::PosInParent(uint32_t id) const {
  uint32_t p = parent_[id];
  const auto& ch = nodes_[p].children;
  for (size_t i = 0; i < ch.size(); ++i) {
    if (ch[i] == id) return static_cast<int>(i) + 1;
  }
  return 0;
}

std::vector<int> RTree::NodePath(uint32_t id) const {
  std::vector<int> path;
  while (id != root_) {
    path.push_back(PosInParent(id));
    id = parent_[id];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int> RTree::TuplePath(Tid tid) const {
  uint32_t leaf = leaf_of_[tid];
  std::vector<int> path = NodePath(leaf);
  const auto& entries = nodes_[leaf].entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].tid == tid) {
      path.push_back(static_cast<int>(i) + 1);
      break;
    }
  }
  return path;
}

std::vector<std::vector<int>> RTree::TupleNodePaths() const {
  std::vector<std::vector<int>> paths(leaf_of_.size());
  for (const auto& n : nodes_) {
    if (!n.is_leaf || n.entries.empty()) continue;
    std::vector<int> p = NodePath(n.id);
    for (const auto& e : n.entries) {
      if (e.tid < paths.size()) paths[e.tid] = p;
    }
  }
  return paths;
}

void RTree::CollectTuplePaths(uint32_t id, std::vector<int>* prefix,
                              std::vector<PathUpdate>* out,
                              bool as_old) const {
  const RTreeNode& n = nodes_[id];
  if (n.is_leaf) {
    for (size_t i = 0; i < n.entries.size(); ++i) {
      std::vector<int> p = *prefix;
      p.push_back(static_cast<int>(i) + 1);
      PathUpdate u;
      u.tid = n.entries[i].tid;
      if (as_old) {
        u.old_path = std::move(p);
      } else {
        u.new_path = std::move(p);
      }
      out->push_back(std::move(u));
    }
    return;
  }
  for (size_t c = 0; c < n.children.size(); ++c) {
    prefix->push_back(static_cast<int>(c) + 1);
    CollectTuplePaths(n.children[c], prefix, out, as_old);
    prefix->pop_back();
  }
}

uint32_t RTree::SplitNode(uint32_t id) {
  // Quadratic split (Guttman). Works uniformly over leaf entries / children
  // by materializing per-item boxes.
  const bool leaf = nodes_[id].is_leaf;
  std::vector<Box> boxes;
  size_t count = nodes_[id].fanout();
  boxes.reserve(count);
  if (leaf) {
    for (const auto& e : nodes_[id].entries) boxes.push_back(BoxOfPoint(e.point));
  } else {
    for (uint32_t c : nodes_[id].children) boxes.push_back(nodes_[c].mbr);
  }

  // PickSeeds: maximize dead area.
  size_t seed_a = 0, seed_b = 1;
  double worst = -kInf;
  for (size_t i = 0; i < count; ++i) {
    for (size_t j = i + 1; j < count; ++j) {
      Box u = boxes[i];
      u.ExpandToInclude(boxes[j]);
      double dead = u.Area() - boxes[i].Area() - boxes[j].Area();
      if (dead > worst) {
        worst = dead;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<int> group(count, -1);
  group[seed_a] = 0;
  group[seed_b] = 1;
  Box cover[2] = {boxes[seed_a], boxes[seed_b]};
  size_t sizes[2] = {1, 1};
  size_t remaining = count - 2;
  while (remaining > 0) {
    // Force-assign when a group must take all remaining to reach min fill.
    for (int g = 0; g < 2; ++g) {
      if (sizes[g] + remaining == static_cast<size_t>(min_entries_)) {
        for (size_t i = 0; i < count; ++i) {
          if (group[i] < 0) {
            group[i] = g;
            cover[g].ExpandToInclude(boxes[i]);
            ++sizes[g];
          }
        }
        remaining = 0;
      }
    }
    if (remaining == 0) break;
    // PickNext: max preference difference.
    size_t pick = count;
    double best_diff = -1.0;
    for (size_t i = 0; i < count; ++i) {
      if (group[i] >= 0) continue;
      double d0 = EnlargedArea(cover[0], boxes[i]) - cover[0].Area();
      double d1 = EnlargedArea(cover[1], boxes[i]) - cover[1].Area();
      double diff = std::abs(d0 - d1);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
      }
    }
    double d0 = EnlargedArea(cover[0], boxes[pick]) - cover[0].Area();
    double d1 = EnlargedArea(cover[1], boxes[pick]) - cover[1].Area();
    int g = (d0 < d1 || (d0 == d1 && sizes[0] <= sizes[1])) ? 0 : 1;
    if (sizes[g] >= count - static_cast<size_t>(min_entries_)) g = 1 - g;
    group[pick] = g;
    cover[g].ExpandToInclude(boxes[pick]);
    ++sizes[g];
    --remaining;
  }

  uint32_t sibling = NewNode(leaf);
  // NewNode may reallocate nodes_; take references afterwards.
  RTreeNode& self = nodes_[id];
  RTreeNode& sib = nodes_[sibling];
  if (leaf) {
    std::vector<RTreeLeafEntry> keep;
    for (size_t i = 0; i < count; ++i) {
      if (group[i] == 0) {
        keep.push_back(std::move(self.entries[i]));
      } else {
        sib.entries.push_back(std::move(self.entries[i]));
      }
    }
    self.entries = std::move(keep);
    for (const auto& e : sib.entries) leaf_of_[e.tid] = sibling;
  } else {
    std::vector<uint32_t> keep;
    for (size_t i = 0; i < count; ++i) {
      if (group[i] == 0) {
        keep.push_back(self.children[i]);
      } else {
        sib.children.push_back(self.children[i]);
        parent_[self.children[i]] = sibling;
      }
    }
    self.children = std::move(keep);
  }
  RecomputeMbr(id);
  RecomputeMbr(sibling);
  return sibling;
}

std::vector<std::vector<int>> RTree::AllTuplePaths() const {
  std::vector<std::vector<int>> paths(num_tuples_);
  std::vector<PathUpdate> collected;
  collected.reserve(num_tuples_);
  std::vector<int> prefix;
  CollectTuplePaths(root_, &prefix, &collected, /*as_old=*/false);
  for (auto& u : collected) {
    if (u.tid >= paths.size()) paths.resize(u.tid + 1);
    paths[u.tid] = std::move(u.new_path);
  }
  return paths;
}

std::vector<PathUpdate> RTree::Insert(Tid tid,
                                      const std::vector<double>& point,
                                      bool track_updates) {
  assert(static_cast<int>(point.size()) == dims_);
  if (leaf_of_.size() <= tid) leaf_of_.resize(tid + 1, 0);

  uint32_t leaf = ChooseLeaf(point);

  // Topmost node that will split: walk up while nodes are full (§4.2.5 —
  // splits propagate exactly while ancestors are at capacity).
  bool will_split = nodes_[leaf].fanout() >= static_cast<size_t>(max_entries_);
  uint32_t top_affected = leaf;
  if (will_split) {
    while (top_affected != root_ &&
           nodes_[parent_[top_affected]].fanout() >=
               static_cast<size_t>(max_entries_)) {
      top_affected = parent_[top_affected];
    }
  }

  std::vector<PathUpdate> old_paths;
  if (will_split && track_updates) {
    std::vector<int> prefix = NodePath(top_affected);
    CollectTuplePaths(top_affected, &prefix, &old_paths, /*as_old=*/true);
  }

  // Standard insert + split propagation.
  nodes_[leaf].entries.push_back({tid, point});
  leaf_of_[tid] = leaf;
  ++num_tuples_;
  uint32_t cur = leaf;
  std::vector<uint32_t> new_top_siblings;
  while (nodes_[cur].fanout() > static_cast<size_t>(max_entries_)) {
    uint32_t sibling = SplitNode(cur);
    if (cur == root_) {
      uint32_t new_root = NewNode(false);
      nodes_[new_root].children = {cur, sibling};
      parent_[cur] = new_root;
      parent_[sibling] = new_root;
      root_ = new_root;
      parent_[new_root] = new_root;
      cur = new_root;
      top_affected = new_root;  // every path gained a level
      break;
    }
    uint32_t par = parent_[cur];
    nodes_[par].children.push_back(sibling);
    parent_[sibling] = par;
    if (cur == top_affected) new_top_siblings.push_back(sibling);
    cur = par;
  }
  TightenToRoot(cur);

  if (!track_updates) return {};

  // Collect new paths for affected subtrees and diff against old paths.
  std::vector<PathUpdate> new_paths;
  {
    std::vector<int> prefix = NodePath(top_affected);
    CollectTuplePaths(top_affected, &prefix, &new_paths, /*as_old=*/false);
    for (uint32_t sib : new_top_siblings) {
      std::vector<int> p = NodePath(sib);
      CollectTuplePaths(sib, &p, &new_paths, /*as_old=*/false);
    }
  }

  std::vector<PathUpdate> updates;
  if (!will_split) {
    PathUpdate u;
    u.tid = tid;
    u.new_path = TuplePath(tid);
    updates.push_back(std::move(u));
    return updates;
  }
  std::unordered_map<Tid, std::vector<int>> old_by_tid;
  old_by_tid.reserve(old_paths.size());
  for (auto& u : old_paths) old_by_tid[u.tid] = std::move(u.old_path);
  for (auto& u : new_paths) {
    auto it = old_by_tid.find(u.tid);
    if (it != old_by_tid.end()) {
      if (it->second == u.new_path) continue;  // unchanged, drop (§4.2.5)
      u.old_path = std::move(it->second);
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

void RTree::TightenToRoot(uint32_t id) {
  for (uint32_t walk = id;; walk = parent_[walk]) {
    RecomputeMbr(walk);
    if (walk == root_) break;
  }
}

std::vector<PathUpdate> RTree::Delete(Tid tid, bool track_updates) {
  if (tid >= leaf_of_.size()) return {};
  uint32_t leaf = leaf_of_[tid];
  auto& entries = nodes_[leaf].entries;
  size_t pos = entries.size();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].tid == tid) {
      pos = i;
      break;
    }
  }
  if (pos == entries.size()) return {};  // tid not stored (already removed)

  // Leaf-entry positions are path components, so every entry after the
  // removed one shifts down by one: emit old/new paths for the shifted
  // range and a clear-only update for the removed tuple (§4.2.5).
  std::vector<PathUpdate> updates;
  if (track_updates) {
    std::vector<int> prefix = NodePath(leaf);
    for (size_t i = pos; i < entries.size(); ++i) {
      PathUpdate u;
      u.tid = entries[i].tid;
      u.old_path = prefix;
      u.old_path.push_back(static_cast<int>(i) + 1);
      if (i > pos) {
        u.new_path = prefix;
        u.new_path.push_back(static_cast<int>(i));
      }
      updates.push_back(std::move(u));
    }
  }

  entries.erase(entries.begin() + pos);
  --num_tuples_;
  // Lazy deletion: an underfull (even empty) leaf stays in place; its MBR
  // and the ancestors' tighten, which only improves lower bounds.
  TightenToRoot(leaf);
  return updates;
}

void ApplyRTreeDelta(RTree* rtree, const Table& table, const DeltaStore& delta,
                     uint64_t* built_epoch, std::vector<PathUpdate>* updates,
                     IoSession* io) {
  if (*built_epoch >= delta.epoch()) return;
  std::vector<Tid> inserted, deleted;
  delta.ChangesSince(*built_epoch, &inserted, &deleted);
  if (io != nullptr && !inserted.empty()) {
    table.ChargeTailScan(io, inserted.front());
  }

  const bool track = updates != nullptr;
  std::unordered_set<uint32_t> touched_leaves;
  std::vector<double> point(rtree->dims());
  for (Tid t : inserted) {
    table.CopyRankRow(t, point.data());
    auto u = rtree->Insert(t, point, track);
    if (track) {
      updates->insert(updates->end(), std::make_move_iterator(u.begin()),
                      std::make_move_iterator(u.end()));
    }
    touched_leaves.insert(rtree->LeafOf(t));
  }
  for (Tid t : deleted) {
    touched_leaves.insert(rtree->LeafOf(t));
    auto u = rtree->Delete(t, track);
    if (track) {
      updates->insert(updates->end(), std::make_move_iterator(u.begin()),
                      std::make_move_iterator(u.end()));
    }
  }
  if (io != nullptr && !touched_leaves.empty()) {
    io->Access(IoCategory::kRTree, uint64_t{1} << 41, rtree->depth());
    for (uint32_t leaf : touched_leaves) {
      io->Access(IoCategory::kRTree, leaf, 2);  // read + write back
    }
  }
  *built_epoch = delta.epoch();
}

void RTree::ChargeBuild(const Table& table, IoSession& io) const {
  table.ChargeFullScan(&io);
  uint64_t pages = std::max<uint64_t>(
      1, (SizeBytes() + io.page_size() - 1) / io.page_size());
  io.Access(IoCategory::kRTree, uint64_t{1} << 40, pages);
}

size_t RTree::SizeBytes() const {
  size_t bytes = 0;
  for (const auto& n : nodes_) {
    bytes += 16 + 16 * static_cast<size_t>(dims_);  // header + MBR
    bytes += n.children.size() * (4 + 16 * static_cast<size_t>(dims_));
    bytes += n.entries.size() * (4 + 8 * static_cast<size_t>(dims_));
  }
  return bytes;
}

}  // namespace rankcube
