#include "skyline/bbs.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/stopwatch.h"

namespace rankcube {

SkylineTransform SkylineTransform::Static(int dims) {
  SkylineTransform t;
  t.dims_ = dims;
  return t;
}

SkylineTransform SkylineTransform::Dynamic(std::vector<double> query_point) {
  SkylineTransform t;
  t.dims_ = static_cast<int>(query_point.size());
  t.q_ = std::move(query_point);
  return t;
}

void SkylineTransform::Apply(const double* point,
                             std::vector<double>* out) const {
  out->resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    (*out)[d] = dynamic() ? std::abs(point[d] - q_[d]) : point[d];
  }
}

void SkylineTransform::ApplyRow(const Table& table, Tid tid,
                                std::vector<double>* out) const {
  out->resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    const double v = table.rank_col(d)[tid];
    (*out)[d] = dynamic() ? std::abs(v - q_[d]) : v;
  }
}

void SkylineTransform::LowerCorner(const Box& box,
                                   std::vector<double>* out) const {
  out->resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    if (dynamic()) {
      (*out)[d] = std::abs(box[d].Clamp(q_[d]) - q_[d]);
    } else {
      (*out)[d] = box[d].lo;
    }
  }
}

double SkylineTransform::MinDist(const Box& box) const {
  std::vector<double> corner;
  LowerCorner(box, &corner);
  double s = 0.0;
  for (double v : corner) s += v;
  return s;
}

namespace {

/// y strictly dominates x: <= on every dim, < on at least one (§7.2.2).
bool Dominates(const std::vector<double>& y, const std::vector<double>& x) {
  bool strict = false;
  for (size_t d = 0; d < y.size(); ++d) {
    if (y[d] > x[d]) return false;
    if (y[d] < x[d]) strict = true;
  }
  return strict;
}

struct HeapEntry {
  BBSJournal::Entry entry;
  uint64_t seq;
  bool operator>(const HeapEntry& o) const {
    return entry.score > o.entry.score ||
           (entry.score == o.entry.score && seq > o.seq);
  }
};

}  // namespace

std::vector<Tid> BBSSkyline(const Table& table, const RTree& rtree,
                            const SkylineTransform& transform,
                            BooleanPruner* pruner, IoSession* io,
                            ExecStats* stats, BBSJournal* journal,
                            const std::vector<BBSJournal::Entry>* seed) {
  Stopwatch watch;
  uint64_t pages_before = io->TotalPhysical();
  const int M = rtree.max_entries();

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  uint64_t seq = 0;
  if (seed != nullptr) {
    for (const auto& e : *seed) heap.push({e, seq++});
  } else {
    heap.push({{transform.MinDist(rtree.node(rtree.root()).mbr), 0,
                rtree.root(), false},
               seq++});
  }

  std::vector<Tid> skyline;
  std::vector<std::vector<double>> sky_points;  // transformed
  std::vector<double> probe;

  auto dominated = [&](const std::vector<double>& x) {
    for (const auto& s : sky_points) {
      if (Dominates(s, x)) return true;
    }
    return false;
  };

  while (!heap.empty()) {
    const BBSJournal::Entry e = heap.top().entry;
    heap.pop();

    if (e.is_tuple) {
      transform.ApplyRow(table, e.id, &probe);
      if (dominated(probe)) {
        if (journal) journal->dominated.push_back(e);
        continue;
      }
      if (pruner != nullptr && !pruner->Qualifies(e.id, e.sid, io, stats)) {
        if (journal) journal->boolean_pruned.push_back(e);
        continue;
      }
      skyline.push_back(e.id);
      sky_points.push_back(probe);
      if (journal) journal->skyline.push_back(e);
      continue;
    }

    // Node: dominance pruning against the box's best corner (Fig 7.1).
    const RTreeNode& node = rtree.node(e.id);
    transform.LowerCorner(node.mbr, &probe);
    if (dominated(probe)) {
      if (journal) journal->dominated.push_back(e);
      continue;
    }
    if (pruner != nullptr && !pruner->MayContain(e.sid, io, stats)) {
      if (journal) journal->boolean_pruned.push_back(e);
      continue;
    }
    rtree.ChargeNodeAccess(io, e.id);
    if (node.is_leaf) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        transform.Apply(node.entries[i].point.data(), &probe);
        double mindist = 0.0;
        for (double v : probe) mindist += v;
        heap.push({{mindist, ChildSid(e.sid, i + 1, M), node.entries[i].tid,
                    true},
                   seq++});
      }
    } else {
      for (size_t i = 0; i < node.children.size(); ++i) {
        const uint32_t child = node.children[i];
        heap.push({{transform.MinDist(rtree.node(child).mbr),
                    ChildSid(e.sid, i + 1, M), child, false},
                   seq++});
      }
    }
    stats->MergeMax(heap.size());
  }

  stats->time_ms += watch.ElapsedMs();
  stats->pages_read += io->TotalPhysical() - pages_before;
  return skyline;
}

std::vector<Tid> SkylineOfTuples(const Table& table,
                                 const std::vector<Tid>& tids,
                                 const SkylineTransform& transform) {
  // Sort by mindist (sum of transformed coords): a point can only be
  // dominated by one sorted before it.
  std::vector<std::pair<double, Tid>> order;
  order.reserve(tids.size());
  std::vector<std::vector<double>> transformed(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    transform.ApplyRow(table, tids[i], &transformed[i]);
    double s = 0.0;
    for (double v : transformed[i]) s += v;
    order.push_back({s, static_cast<Tid>(i)});
  }
  std::sort(order.begin(), order.end());
  std::vector<Tid> skyline;
  std::vector<const std::vector<double>*> sky_points;
  for (const auto& [dist, idx] : order) {
    (void)dist;
    const auto& x = transformed[idx];
    bool dom = false;
    for (const auto* s : sky_points) {
      bool strict = false, ok = true;
      for (size_t d = 0; d < x.size(); ++d) {
        if ((*s)[d] > x[d]) {
          ok = false;
          break;
        }
        if ((*s)[d] < x[d]) strict = true;
      }
      if (ok && strict) {
        dom = true;
        break;
      }
    }
    if (!dom) {
      skyline.push_back(tids[idx]);
      sky_points.push_back(&transformed[idx]);
    }
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace rankcube
