#include "core/signature_cube.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace rankcube {

SignatureCube::SignatureCube(const Table& table, IoSession& io,
                             SignatureCubeOptions options)
    : table_(table),
      page_size_(io.page_size()),
      lossy_bloom_(options.lossy_bloom),
      bloom_bits_per_entry_(options.bloom_bits_per_entry),
      built_epoch_(table.epoch()) {
  uint64_t pages_before = io.TotalPhysical();

  // 1. Partition by R-tree over the ranking dimensions (Algorithm 1 line 1).
  Stopwatch rtree_watch;
  RTreeOptions ropt;
  ropt.max_entries = options.rtree_max_entries;
  rtree_ = std::make_unique<RTree>(table.num_rank_dims(), io, ropt);
  if (options.bulk_load) {
    rtree_->BulkLoadSTR(table);
  } else {
    std::vector<double> point(table.num_rank_dims());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      if (!table.is_live(t)) continue;
      table.CopyRankRow(t, point.data());
      rtree_->Insert(t, point, /*track_updates=*/false);
    }
  }
  rtree_->ChargeBuild(table, io);
  rtree_build_ms_ = rtree_watch.ElapsedMs();

  // 2. Paths for all tuples (Algorithm 1 line 2).
  Stopwatch cube_watch;
  std::vector<std::vector<int>> paths = rtree_->AllTuplePaths();

  // 3. Per-cuboid, per-cell signature generation (lines 3-8). The default
  //    set is the atomic cuboids: one per boolean dimension (§4.3.3).
  std::vector<std::vector<int>> sets = options.cuboid_dim_sets;
  if (sets.empty()) {
    for (int d = 0; d < table.num_sel_dims(); ++d) sets.push_back({d});
  }
  const int M = rtree_->max_entries();
  for (auto& dims : sets) {
    SignatureCuboid cuboid;
    cuboid.dims = dims;
    std::sort(cuboid.dims.begin(), cuboid.dims.end());
    CellKey key;
    key.values.resize(cuboid.dims.size());
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      if (!table.is_live(t)) continue;
      for (size_t i = 0; i < cuboid.dims.size(); ++i) {
        key.values[i] = table.sel(t, cuboid.dims[i]);
      }
      auto [it, inserted] = cuboid.sigs.try_emplace(key, Signature(M));
      (void)inserted;
      it->second.SetPath(paths[t]);
    }
    for (auto& [cell, sig] : cuboid.sigs) {
      sig.Compress(page_size_);
      if (options.lossy_bloom) {
        // §4.5: bloom over the SIDs whose bits are set. A set bit b of node
        // `sid` corresponds to the child SID sid*(M+1)+b+1.
        std::vector<Sid> present;
        for (const auto& [sid, node] : sig.nodes()) {
          for (size_t b = 0; b < node.bits.size(); ++b) {
            if (node.bits.Get(b)) present.push_back(ChildSid(sid, b + 1, M));
          }
        }
        size_t bits = std::max<size_t>(
            64, static_cast<size_t>(options.bloom_bits_per_entry *
                                    present.size()));
        BloomFilter bloom(bits,
                          BloomFilter::OptimalHashes(bits, present.size()));
        for (Sid s : present) bloom.Insert(s);
        cuboid.blooms.emplace(cell, std::move(bloom));
      }
    }
    cuboids_.push_back(std::move(cuboid));
    cuboid_index_.emplace(cuboids_.back().dims, cuboids_.size() - 1);
  }
  // Honest construction I/O for the signature pass: one relation scan plus
  // the compressed signatures written (the R-tree part is charged above),
  // mirroring ChargeCuboidBuild for the grid family.
  table.ChargeFullScan(&io);
  uint64_t sig_pages = std::max<uint64_t>(
      1, (CompressedBytes() + page_size_ - 1) / page_size_);
  io.Access(IoCategory::kSignature, uint64_t{1} << 56, sig_pages);
  construction_pages_ = io.TotalPhysical() - pages_before;
  construction_ms_ = cube_watch.ElapsedMs();
}

const SignatureCuboid* SignatureCube::FindCuboid(
    const std::vector<int>& dims) const {
  std::vector<int> sorted = dims;
  std::sort(sorted.begin(), sorted.end());
  auto it = cuboid_index_.find(sorted);
  return it == cuboid_index_.end() ? nullptr : &cuboids_[it->second];
}

namespace {

/// Pruner for a provably-empty cell: rejects everything.
class EmptyCellPruner : public BooleanPruner {
 public:
  bool MayContain(Sid, IoSession*, ExecStats*) override { return false; }
  bool Qualifies(Tid, Sid, IoSession*, ExecStats*) override { return false; }
};

/// Flat open-addressing set of SIDs (linear probing): a per-query memo
/// that costs no heap allocation per insert.
class SidSet {
 public:
  bool contains(Sid sid) const {
    if (slots_.empty()) return false;
    for (size_t i = Slot(sid);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == sid + 1) return true;
      if (slots_[i] == 0) return false;
    }
  }

  void insert(Sid sid) {
    if (2 * (size_ + 1) > slots_.size()) {  // keep the load under one half
      std::vector<Sid> old(std::max<size_t>(64, 2 * slots_.size()), 0);
      old.swap(slots_);
      size_ = 0;
      for (Sid key : old) {
        if (key != 0) insert(key - 1);
      }
    }
    for (size_t i = Slot(sid);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == sid + 1) return;
      if (slots_[i] == 0) {
        slots_[i] = sid + 1;
        ++size_;
        return;
      }
    }
  }

 private:
  /// Fibonacci hashing: high bits of the golden-ratio product.
  size_t Slot(Sid sid) const {
    return static_cast<size_t>((sid * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  std::vector<Sid> slots_;  ///< sid + 1; 0 = empty; size a power of two
  size_t size_ = 0;
};

/// Boolean pruner backed by one or more cell signatures (assembled online
/// for multi-predicate queries, §4.3.3); see MakePruner. Only the partial
/// loads are timed into ExecStats::signature_ms.
class SignaturePruner : public BooleanPruner {
 public:
  /// All source signatures must pass for a SID. The sources are cells of
  /// one R-tree partition, so they share its M.
  explicit SignaturePruner(std::vector<const Signature*> sources)
      : sources_(std::move(sources)),
        base_(static_cast<Sid>(sources_.front()->M() + 1)),
        loaded_(sources_.size()) {}

  bool MayContain(Sid sid, IoSession* io, ExecStats* stats) override {
    if (!WalkAll(sid, io, stats)) return false;
    admitted_.insert(sid);
    return true;
  }

  bool Qualifies(Tid, Sid sid, IoSession* io, ExecStats* stats) override {
    // Leaf-entry bits are per-tuple, so the AND over sources is exact here.
    // An admitted leaf has its path's partials loaded and its ancestors'
    // bits set, so only the entry's own bit is left to test.
    const Sid leaf = sid / base_;
    if (!admitted_.contains(leaf)) return WalkAll(sid, io, stats);
    const int pos = static_cast<int>(sid % base_);
    for (const Signature* sig : sources_) {
      const Signature::NodeEntry* node = sig->Find(leaf);
      if (node == nullptr || !node->Has(pos)) return false;
    }
    return true;
  }

 private:
  /// Walks every source toward `sid`; false at the first zero bit.
  bool WalkAll(Sid sid, IoSession* io, ExecStats* stats) {
    for (size_t s = 0; s < sources_.size(); ++s) {
      bool pass = sources_[s]->Walk(sid, [&](const Signature::NodeEntry& n) {
        Load(s, n.partial, io, stats);
      });
      if (!pass) return false;
    }
    return true;
  }

  void Load(size_t src, size_t partial, IoSession* io, ExecStats* stats) {
    if (partial == SIZE_MAX) return;  // not stored by the last Compress
    std::vector<bool>& loaded = loaded_[src];
    if (partial < loaded.size() && loaded[partial]) return;
    if (partial >= loaded.size()) loaded.resize(partial + 1);
    loaded[partial] = true;
    Stopwatch watch;
    io->Access(IoCategory::kSignature,
               (static_cast<uint64_t>(src) << 48) ^ partial);
    ++stats->signature_pages;
    stats->signature_ms += watch.ElapsedMs();
  }

  std::vector<const Signature*> sources_;
  Sid base_;  ///< M + 1
  /// Per source, per partial: charged in this query.
  std::vector<std::vector<bool>> loaded_;
  SidSet admitted_;  ///< nodes MayContain passed
};

}  // namespace

Result<std::unique_ptr<BooleanPruner>> SignatureCube::MakePruner(
    const std::vector<Predicate>& predicates) const {
  if (predicates.empty()) {
    return std::unique_ptr<BooleanPruner>(nullptr);
  }
  std::vector<const Signature*> sources;
  std::vector<int> qdims;
  for (const auto& p : predicates) qdims.push_back(p.dim);
  std::sort(qdims.begin(), qdims.end());

  // Prefer one exactly-matching materialized cuboid; otherwise assemble from
  // the atomic cuboids online (§4.3.3).
  const SignatureCuboid* exact = FindCuboid(qdims);
  if (exact != nullptr) {
    std::vector<int32_t> values;
    ProjectPredicates(predicates, exact->dims, &values);
    CellKey key{values, 0};
    auto it = exact->sigs.find(key);
    if (it == exact->sigs.end()) {
      return std::unique_ptr<BooleanPruner>(new EmptyCellPruner());
    }
    sources.push_back(&it->second);
  } else {
    for (const auto& p : predicates) {
      const SignatureCuboid* atomic = FindCuboid({p.dim});
      if (atomic == nullptr) {
        return Status::NotFound("no atomic cuboid for queried dimension");
      }
      CellKey key{{p.value}, 0};
      auto it = atomic->sigs.find(key);
      if (it == atomic->sigs.end()) {
        return std::unique_ptr<BooleanPruner>(new EmptyCellPruner());
      }
      sources.push_back(&it->second);
    }
  }
  return std::unique_ptr<BooleanPruner>(
      new SignaturePruner(std::move(sources)));
}

Result<std::vector<ScoredTuple>> SignatureCube::TopK(const TopKQuery& query,
                                                     IoSession* io,
                                                     ExecStats* stats) const {
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  auto pruner = MakePruner(query.predicates);
  if (!pruner.ok()) return pruner.status();
  if (pruner.value() == nullptr) {
    NullPruner null_pruner;
    return RTreeBranchAndBoundTopK(table_, *rtree_, query, &null_pruner, io,
                                   stats);
  }
  return RTreeBranchAndBoundTopK(table_, *rtree_, query,
                                 pruner.value().get(), io, stats);
}

void SignatureCube::ApplyPathUpdates(const std::vector<PathUpdate>& updates,
                                     IoSession* io) {
  // Net each tuple's moves across the batch first: a split shifts the
  // stay-behind entries down while the movers' OLD positions alias the
  // stayers' NEW ones, so applying clear/set per update in batch order can
  // clear a bit another tuple just set (and a tuple touched by several
  // operations must not materialize its intermediate positions). Chain
  // per-tid to (first old -> last new), drop no-ops, and below apply every
  // clear before any set.
  std::vector<PathUpdate> net;
  {
    std::unordered_map<Tid, size_t> slot;
    for (const auto& u : updates) {
      auto [it, fresh] = slot.try_emplace(u.tid, net.size());
      if (fresh) {
        net.push_back(u);
      } else {
        net[it->second].new_path = u.new_path;
      }
    }
    net.erase(std::remove_if(net.begin(), net.end(),
                             [](const PathUpdate& u) {
                               return u.old_path == u.new_path;
                             }),
              net.end());
  }
  for (auto& cuboid : cuboids_) {
    // Group updates by cell (lines 2-4 of Algorithm 2).
    std::unordered_map<CellKey, std::vector<const PathUpdate*>, CellKeyHash>
        by_cell;
    CellKey key;
    key.values.resize(cuboid.dims.size());
    for (const auto& u : net) {
      for (size_t i = 0; i < cuboid.dims.size(); ++i) {
        key.values[i] = table_.sel(u.tid, cuboid.dims[i]);
      }
      by_cell[key].push_back(&u);
    }
    for (auto& [cell, cell_updates] : by_cell) {
      auto sig_it = cuboid.sigs.find(cell);
      if (sig_it == cuboid.sigs.end()) {
        sig_it =
            cuboid.sigs.try_emplace(cell, Signature(rtree_->max_entries()))
                .first;
      }
      // Charge read of the cell's partial signatures + write-back
      // (io == nullptr = uncharged maintenance, as in ApplyGridDelta).
      if (io != nullptr) {
        uint64_t sig_pages = std::max<uint64_t>(
            1, (sig_it->second.CompressedBytes() + page_size_ - 1) /
                   page_size_);
        io->Access(IoCategory::kSignature, CellKeyHash{}(cell),
                   2 * sig_pages);  // read + write back
      }
      // Two phases: every clear before any set (see the netting above).
      for (const PathUpdate* u : cell_updates) {
        if (!u->old_path.empty()) sig_it->second.ClearPath(u->old_path);
      }
      for (const PathUpdate* u : cell_updates) {
        if (!u->new_path.empty()) sig_it->second.SetPath(u->new_path);
      }
      if (sig_it->second.empty()) {
        cuboid.sigs.erase(sig_it);
      } else {
        sig_it->second.Compress(page_size_);
      }
      if (lossy_bloom_) {
        // The §4.5 blooms must never go false-negative: every SID along a
        // set path enters the cell's bloom. Cleared paths stay as stale
        // bits — lossy queries verify candidates against the table, so
        // extra positives only cost verifications.
        auto bloom_it = cuboid.blooms.find(cell);
        if (bloom_it == cuboid.blooms.end()) {
          size_t bits = std::max<size_t>(
              64, static_cast<size_t>(bloom_bits_per_entry_ * 64));
          bloom_it = cuboid.blooms
                         .emplace(cell, BloomFilter(
                                            bits, BloomFilter::OptimalHashes(
                                                      bits, 64)))
                         .first;
        }
        const int M = rtree_->max_entries();
        for (const PathUpdate* u : cell_updates) {
          for (size_t l = 1; l <= u->new_path.size(); ++l) {
            bloom_it->second.Insert(SidOfPath(u->new_path, l, M));
          }
        }
      }
    }
  }
}

Status SignatureCube::ApplyDelta(const DeltaStore& delta, IoSession* io) {
  if (built_epoch_ >= delta.epoch()) return Status::OK();  // empty: no-op
  // Algorithm 2 both ways: the shared R-tree pass (inserts, lazy deletes,
  // leaf-level I/O charging) collects the path-update sets — clear-only
  // for removed tuples — and one grouped pass updates every affected cell
  // signature.
  std::vector<PathUpdate> updates;
  ApplyRTreeDelta(rtree_.get(), table_, delta, &built_epoch_, &updates, io);
  ApplyPathUpdates(updates, io);
  return Status::OK();
}

namespace {

/// §4.5 pruner: bloom tests on SIDs (one-sided), exact verification
/// of candidate tuples against the base table.
class LossyBloomPruner : public BooleanPruner {
 public:
  LossyBloomPruner(const Table& table, const std::vector<Predicate>& preds,
                   std::vector<const BloomFilter*> blooms)
      : verify_(table, preds), blooms_(std::move(blooms)) {}

  bool MayContain(Sid sid, IoSession*, ExecStats*) override {
    if (sid == 0) return true;  // the root
    for (const auto* bloom : blooms_) {
      if (!bloom->MayContain(sid)) return false;
    }
    return true;
  }

  bool Qualifies(Tid tid, Sid sid, IoSession* io, ExecStats* stats) override {
    // Bloom false positives make tuple-level bits unreliable; verify.
    return MayContain(sid, io, stats) && verify_.Qualifies(tid, sid, io, stats);
  }

 private:
  TableVerifyPruner verify_;
  std::vector<const BloomFilter*> blooms_;
};

}  // namespace

Result<std::vector<ScoredTuple>> SignatureCube::TopKLossy(
    const TopKQuery& query, IoSession* io, ExecStats* stats) const {
  if (!query.function) {
    return Status::InvalidArgument("query has no ranking function");
  }
  std::vector<const BloomFilter*> blooms;
  for (const auto& p : query.predicates) {
    const SignatureCuboid* atomic = FindCuboid({p.dim});
    if (atomic == nullptr) {
      return Status::NotFound("no atomic cuboid for queried dimension");
    }
    auto it = atomic->blooms.find(CellKey{{p.value}, 0});
    if (it == atomic->blooms.end()) {
      return std::vector<ScoredTuple>{};  // value absent: empty result
    }
    blooms.push_back(&it->second);
  }
  if (blooms.empty()) {
    NullPruner pruner;
    return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
  }
  LossyBloomPruner pruner(table_, query.predicates, std::move(blooms));
  return RTreeBranchAndBoundTopK(table_, *rtree_, query, &pruner, io, stats);
}

size_t SignatureCube::LossyBloomBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, bloom] : c.blooms) {
      (void)cell;
      bytes += bloom.SizeBytes();
    }
  }
  return bytes;
}

size_t SignatureCube::CompressedBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, sig] : c.sigs) {
      (void)cell;
      bytes += sig.CompressedBytes();
    }
  }
  return bytes;
}

size_t SignatureCube::BaselineBytes() const {
  size_t bytes = 0;
  for (const auto& c : cuboids_) {
    for (const auto& [cell, sig] : c.sigs) {
      (void)cell;
      bytes += sig.BaselineBytes();
    }
  }
  return bytes;
}

}  // namespace rankcube
