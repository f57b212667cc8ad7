#include "partition/partitioned_db.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "common/stopwatch.h"

namespace rankcube {

namespace {

/// The merge's internal tuple: carries the creation sequence so the sort is
/// the deterministic (score, partition creation order, tid) total order.
struct MergeTuple {
  double score = 0.0;
  uint64_t seq = 0;
  Tid tid = 0;
  size_t part_index = 0;  ///< into the partitions_ snapshot

  bool operator<(const MergeTuple& o) const {
    if (score != o.score) return score < o.score;
    if (seq != o.seq) return seq < o.seq;
    return tid < o.tid;
  }
};

}  // namespace

std::string PartitionedDbStats::ToString() const {
  std::string out;
  out += "partitions=" + std::to_string(partitions) + "\n";
  out += "rows=" + std::to_string(rows) + "\n";
  out += "live_rows=" + std::to_string(live_rows) + "\n";
  out += std::string("durable=") + (durable ? "1" : "0") + "\n";
  out += "scatter.queries_executed=" + std::to_string(queries_executed) + "\n";
  out += "scatter.query_failures=" + std::to_string(query_failures) + "\n";
  out +=
      "scatter.partitions_queried=" + std::to_string(partitions_queried) + "\n";
  out +=
      "scatter.partitions_pruned=" + std::to_string(partitions_pruned) + "\n";
  out += cache.ToString("cache_");
  for (const auto& [name, stats] : per_partition) {
    const std::string prefix = "partition." + name + ".";
    auto range = ranges.find(name);
    if (range != ranges.end()) {
      out += prefix + "range=" + range->second.ToString() + "\n";
    }
    const std::string flat = stats.ToString();
    size_t start = 0;
    while (start < flat.size()) {
      size_t eol = flat.find('\n', start);
      if (eol == std::string::npos) eol = flat.size();
      if (eol > start) out += prefix + flat.substr(start, eol - start) + "\n";
      start = eol + 1;
    }
  }
  return out;
}

PartitionedDb::PartitionedDb(Options options)
    : options_(std::move(options)), cache_(options_.cache) {
  if (durable()) {
    fs_ = options_.fs != nullptr ? options_.fs : Fs::Posix();
  }
}

Result<std::unique_ptr<PartitionedDb>> PartitionedDb::Open(Options options) {
  if (options.schema.num_sel_dims() == 0 ||
      options.schema.num_rank_dims <= 0) {
    return Status::InvalidArgument(
        "partitioned db needs at least one selection and one rank dimension");
  }
  if (options.partition_dim < 0 ||
      options.partition_dim >= options.schema.num_sel_dims()) {
    return Status::InvalidArgument(
        "partition_dim A" + std::to_string(options.partition_dim) +
        " out of range for the schema");
  }
  std::unique_ptr<PartitionedDb> db(new PartitionedDb(std::move(options)));
  if (!db->durable()) return db;

  Fs* fs = db->fs_;
  const std::string& dir = db->options_.data_dir;
  RC_RETURN_IF_ERROR(fs->CreateDir(dir));
  auto manifest = LoadPartitionManifest(fs, dir);
  if (!manifest.ok()) {
    if (manifest.status().code() != Status::Code::kNotFound) {
      return manifest.status();
    }
    // Fresh root: commit an empty manifest so the directory is
    // self-describing from the first instant.
    PartitionManifest fresh;
    fresh.partition_dim = db->options_.partition_dim;
    RC_RETURN_IF_ERROR(StorePartitionManifest(fs, dir, fresh));
    return db;
  }
  const PartitionManifest& m = manifest.value();
  if (m.partition_dim != db->options_.partition_dim) {
    return Status::InvalidArgument(
        "data_dir is partitioned on A" + std::to_string(m.partition_dim) +
        " but options ask for A" + std::to_string(db->options_.partition_dim));
  }
  for (const PartitionManifestEntry& e : m.partitions) {
    auto opened = RankCubeDb::Open(Table(db->options_.schema),
                                   db->PartitionDbOptions(e.name));
    if (!opened.ok()) {
      return opened.status().WithPrefix("partition '" + e.name + "': ");
    }
    auto part = std::make_unique<Part>();
    part->name = e.name;
    part->range = e.range;
    part->seq = db->next_seq_++;
    part->db = std::move(opened).value();
    RecomputeRankBox(part.get());
    db->partitions_.push_back(std::move(part));
  }
  // GC orphan partition directories: present on disk, absent from the
  // manifest (a crash between directory seeding and the manifest commit,
  // or between a drop's commit and its file GC). ListDir on a plain file
  // fails, which conveniently skips the manifest itself.
  auto names = fs->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      bool listed = false;
      for (const PartitionManifestEntry& e : m.partitions) {
        if (e.name == name) {
          listed = true;
          break;
        }
      }
      if (listed) continue;
      auto sub = fs->ListDir(JoinPath(dir, name));
      if (!sub.ok()) continue;  // a file (e.g. PARTITIONS), not a directory
      for (const std::string& f : sub.value()) {
        (void)fs->RemoveFile(JoinPath(JoinPath(dir, name), f));
      }
    }
  }
  return db;
}

const PartitionedDb::Part* PartitionedDb::FindLocked(
    const std::string& name) const {
  for (const auto& part : partitions_) {
    if (part->name == name) return part.get();
  }
  return nullptr;
}

RankCubeDb::Options PartitionedDb::PartitionDbOptions(
    const std::string& name) const {
  RankCubeDb::Options popts = options_.db;
  popts.cache = ResultCacheOptions{};
  popts.durability = DurabilityOptions{};
  if (durable()) {
    popts.durability.data_dir = JoinPath(options_.data_dir, name);
    popts.durability.fsync = options_.fsync;
    popts.durability.page_size = popts.store.page_size;
    popts.durability.fs = fs_;
  }
  return popts;
}

void PartitionedDb::RecomputeRankBox(Part* part) {
  const Table& table = part->db->table();
  const int r = table.num_rank_dims();
  part->rank_box = Box::EmptyFor(static_cast<size_t>(r));
  part->has_rows = false;
  std::vector<double> point(static_cast<size_t>(r));
  for (Tid t = 0; t < table.num_rows(); ++t) {
    if (!table.is_live(t)) continue;
    table.CopyRankRow(t, point.data());
    part->rank_box.ExpandToInclude(point);
    part->has_rows = true;
  }
}

Status PartitionedDb::CommitManifestLocked() {
  PartitionManifest m;
  m.partition_dim = options_.partition_dim;
  for (const auto& part : partitions_) {
    m.partitions.push_back({part->name, part->range});
  }
  return StorePartitionManifest(fs_, options_.data_dir, m);
}

void PartitionedDb::GcPartitionDir(const std::string& name) {
  const std::string sub = JoinPath(options_.data_dir, name);
  auto files = fs_->ListDir(sub);
  if (!files.ok()) return;
  for (const std::string& f : files.value()) {
    (void)fs_->RemoveFile(JoinPath(sub, f));
  }
}

Status PartitionedDb::CreatePartition(const std::string& name,
                                      PartitionRange range) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CreatePartitionLocked(name, range, Table(options_.schema));
}

Status PartitionedDb::CreatePartition(const std::string& name,
                                      PartitionRange range, Table seed) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return CreatePartitionLocked(name, range, std::move(seed));
}

Status PartitionedDb::CreatePartitionLocked(const std::string& name,
                                            PartitionRange range, Table seed) {
  if (!IsValidPartitionName(name)) {
    return Status::InvalidArgument("bad partition name '" + name + "'");
  }
  const int dim = options_.partition_dim;
  const int32_t domain = options_.schema.sel_cardinality[dim];
  if (range.empty() || range.lo < 0 || range.hi > domain) {
    return Status::InvalidArgument(
        "partition range " + range.ToString() + " invalid for A" +
        std::to_string(dim) + " domain [0," + std::to_string(domain) + ")");
  }
  for (const auto& part : partitions_) {
    if (part->name == name) {
      return Status::InvalidArgument("partition '" + name +
                                     "' already exists");
    }
    if (part->range.Overlaps(range)) {
      return Status::InvalidArgument(
          "partition range " + range.ToString() + " overlaps '" + part->name +
          "' " + part->range.ToString());
    }
  }
  if (seed.schema().sel_cardinality != options_.schema.sel_cardinality ||
      seed.schema().num_rank_dims != options_.schema.num_rank_dims) {
    return Status::InvalidArgument("seed table schema differs from the db's");
  }
  for (Tid t = 0; t < seed.num_rows(); ++t) {
    if (!range.Contains(seed.sel(t, dim))) {
      return Status::InvalidArgument(
          "seed row " + std::to_string(t) + " has A" + std::to_string(dim) +
          "=" + std::to_string(seed.sel(t, dim)) + " outside " +
          range.ToString());
    }
  }

  auto part = std::make_unique<Part>();
  part->name = name;
  part->range = range;
  if (durable()) {
    RC_RETURN_IF_ERROR(fs_->CreateDir(JoinPath(options_.data_dir, name)));
    // Wipe whatever a crashed earlier create left here: recovering stale
    // rows into a partition the manifest never acknowledged would
    // resurrect data the caller believes gone.
    GcPartitionDir(name);
    auto opened = RankCubeDb::Open(std::move(seed), PartitionDbOptions(name));
    if (!opened.ok()) return opened.status();
    part->db = std::move(opened).value();
  } else {
    part->db =
        std::make_unique<RankCubeDb>(std::move(seed), PartitionDbOptions(name));
  }
  part->seq = next_seq_++;
  RecomputeRankBox(part.get());
  partitions_.push_back(std::move(part));
  if (durable()) {
    Status s = CommitManifestLocked();
    if (!s.ok()) {
      // Not committed: roll back the in-memory state; the seeded directory
      // is an orphan the next Open (or re-create) collects.
      partitions_.pop_back();
      return s;
    }
  }
  return Status::OK();
}

Status PartitionedDb::DropPartition(const std::string& name) {
  std::unique_ptr<Part> removed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    size_t index = partitions_.size();
    for (size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i]->name == name) {
        index = i;
        break;
      }
    }
    if (index == partitions_.size()) {
      return Status::NotFound("no partition '" + name + "'");
    }
    removed = std::move(partitions_[index]);
    partitions_.erase(partitions_.begin() + static_cast<long>(index));
    if (durable()) {
      Status s = CommitManifestLocked();
      if (!s.ok()) {
        // Commit failed: the drop did not happen.
        partitions_.insert(partitions_.begin() + static_cast<long>(index),
                           std::move(removed));
        return s;
      }
    }
  }
  // Past the commit point: queries admitted from here on cannot see the
  // partition. Close it (releases the checkpoint file handle), then GC its
  // files — deferred, O(files), no page reads.
  removed->db.reset();
  if (durable()) GcPartitionDir(name);
  return Status::OK();
}

std::vector<PartitionInfo> PartitionedDb::ListPartitions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<PartitionInfo> out;
  out.reserve(partitions_.size());
  for (const auto& part : partitions_) {
    PartitionInfo info;
    info.name = part->name;
    info.range = part->range;
    info.rows = part->db->table().num_rows();
    info.live_rows = part->db->table().num_live();
    info.epoch = part->db->table().epoch();
    info.read_only = part->db->read_only();
    out.push_back(std::move(info));
  }
  return out;
}

Result<PartitionedRowRef> PartitionedDb::Insert(
    const std::vector<int32_t>& sel, const std::vector<double>& rank) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const int dim = options_.partition_dim;
  if (sel.size() != static_cast<size_t>(options_.schema.num_sel_dims())) {
    return Status::InvalidArgument(
        "row has " + std::to_string(sel.size()) + " selection values, want " +
        std::to_string(options_.schema.num_sel_dims()));
  }
  Part* target = nullptr;
  for (const auto& part : partitions_) {
    if (part->range.Contains(sel[dim])) {
      target = part.get();
      break;
    }
  }
  if (target == nullptr) {
    return Status::NotFound("no partition covers A" + std::to_string(dim) +
                            "=" + std::to_string(sel[dim]));
  }
  auto tid = target->db->Insert(sel, rank);
  if (!tid.ok()) return tid.status();
  target->rank_box.ExpandToInclude(rank);
  target->has_rows = true;
  return PartitionedRowRef{target->name, tid.value()};
}

Status PartitionedDb::Delete(const std::string& partition, Tid tid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const Part* part = FindLocked(partition);
  if (part == nullptr) return Status::NotFound("no partition '" + partition + "'");
  // The rank box stays as-is: it is conservative, and Compact() retightens.
  return part->db->Delete(tid);
}

Result<CompactionReport> PartitionedDb::Compact() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CompactionReport total;
  for (const auto& part : partitions_) {
    if (part->db->read_only()) continue;
    auto report = part->db->Compact();
    if (!report.ok()) {
      return report.status().WithPrefix("partition '" + part->name + "': ");
    }
    const CompactionReport& r = report.value();
    total.epoch = std::max(total.epoch, r.epoch);
    total.absorbed_inserts += r.absorbed_inserts;
    total.absorbed_deletes += r.absorbed_deletes;
    total.maintained += r.maintained;
    total.rebuilt += r.rebuilt;
    total.pages += r.pages;
    // Only absorbed rows change the tight box: an insert already grew the
    // kept box, a delete left it loose.
    if (r.absorbed_inserts + r.absorbed_deletes > 0) {
      RecomputeRankBox(part.get());
    }
  }
  return total;
}

Status PartitionedDb::Checkpoint() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& part : partitions_) {
    if (!part->db->durable() || part->db->read_only()) continue;
    Status s = part->db->Checkpoint();
    if (!s.ok()) return s.WithPrefix("partition '" + part->name + "': ");
  }
  return Status::OK();
}

ScatterPlan PartitionedDb::PlanLocked(const TopKQuery& query) const {
  std::vector<PartitionView> views;
  views.reserve(partitions_.size());
  for (const auto& part : partitions_) {
    views.push_back({part->range, &part->rank_box, part->has_rows});
  }
  return BuildScatterPlan(query, options_.partition_dim, views);
}

std::string PartitionedDb::EpochTagLocked(const TopKQuery& query) const {
  std::string tag;
  for (const auto& part : partitions_) {
    // A partition the key predicate excludes can never contribute to the
    // answer, so its epoch stays out of the tag. Bound-pruned and empty
    // partitions stay IN: a write there can change the answer.
    if (KeyPredicateExcludes(query, options_.partition_dim, part->range)) {
      continue;
    }
    tag += std::to_string(part->seq) + ":" +
           std::to_string(part->db->table().epoch()) + ";";
  }
  return tag;
}

Result<PartitionedTopK> PartitionedDb::Query(const TopKQuery& query,
                                             const QueryOptions& opts) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Status valid = ValidateQuery(query, options_.schema);
  if (!valid.ok()) {
    std::lock_guard<std::mutex> t(traffic_mu_);
    ++query_failures_;
    return valid;
  }
  // Scatter-level cache: exact hits only (no overfetch, no sibling reuse —
  // the per-partition exclusion bounds don't compose across the merge).
  CanonicalQuery cache_key;
  std::string epoch_tag;
  bool cacheable = false;
  if (cache_.enabled() && opts.force_engine.empty()) {
    cache_key = CanonicalizeQuery(query);
    if (cache_key.cacheable) {
      cacheable = true;
      epoch_tag = EpochTagLocked(query);
      if (std::optional<CachedResult> hit =
              cache_.Lookup(cache_key, epoch_tag)) {
        PartitionedTopK out;
        out.scatter.partitions = partitions_.size();
        out.tuples.reserve(hit->tuples.size());
        for (size_t i = 0; i < hit->tuples.size(); ++i) {
          out.tuples.push_back(
              {hit->partitions[i], hit->tuples[i].tid, hit->tuples[i].score});
        }
        std::lock_guard<std::mutex> t(traffic_mu_);
        ++queries_executed_;
        return out;
      }
    }
  }
  Stopwatch watch;
  ScatterPlan plan = PlanLocked(query);

  PartitionedTopK out;
  out.scatter.partitions = partitions_.size();
  out.scatter.pruned_by_predicate = plan.pruned_by_predicate;
  out.scatter.skipped_empty = plan.skipped_empty;

  const size_t k = static_cast<size_t>(query.k);
  std::vector<MergeTuple> merged;
  Status failure = Status::OK();
  for (const PartitionCandidate& c : plan.candidates) {
    // Candidates are bound-ascending, so the first one the full top-k's
    // S_k strictly beats ends the gather: every later candidate is at
    // least as hopeless. So does the first +inf bound: no tuple of that
    // partition can score finitely.
    if (!(c.bound < kInfScore) ||
        (merged.size() >= k && c.bound > merged[k - 1].score)) {
      break;
    }
    const Part& part = *partitions_[c.index];
    Result<TopKResult> r = part.db->Query(query, opts);
    ++out.scatter.queried;
    if (!r.ok()) {
      failure = r.status().WithPrefix("partition '" + part.name + "': ");
      break;
    }
    out.stats += r.value().stats;
    for (const ScoredTuple& t : r.value().tuples) {
      merged.push_back({t.score, part.seq, t.tid, c.index});
    }
    std::sort(merged.begin(), merged.end());
    if (merged.size() > k) merged.resize(k);
  }
  out.scatter.pruned_by_bound = plan.candidates.size() - out.scatter.queried;
  out.stats.time_ms = watch.ElapsedMs();

  {
    std::lock_guard<std::mutex> t(traffic_mu_);
    ++queries_executed_;
    if (!failure.ok()) ++query_failures_;
    partitions_queried_ += out.scatter.queried;
    partitions_pruned_ += out.scatter.pruned_by_predicate +
                          out.scatter.pruned_by_bound;
  }
  if (!failure.ok()) return failure;

  out.tuples.reserve(merged.size());
  for (const MergeTuple& t : merged) {
    out.tuples.push_back(
        {partitions_[t.part_index]->name, t.tid, t.score});
  }
  if (cacheable) {
    cache_.RecordMiss();
    CachedResult entry;
    entry.tuples.reserve(out.tuples.size());
    entry.partitions.reserve(out.tuples.size());
    for (const PartitionedTuple& t : out.tuples) {
      entry.tuples.push_back({t.tid, t.score});
      entry.partitions.push_back(t.partition);
    }
    cache_.Insert(cache_key, epoch_tag, std::move(entry));
  }
  return out;
}

Result<std::string> PartitionedDb::ExplainScatter(
    const TopKQuery& query, const QueryOptions& opts) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  RC_RETURN_IF_ERROR(ValidateQuery(query, options_.schema));
  ScatterPlan plan = PlanLocked(query);

  // Candidate order index per partition (SIZE_MAX = not a candidate).
  std::vector<size_t> order(partitions_.size(), SIZE_MAX);
  std::vector<double> bound(partitions_.size(), 0.0);
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    order[plan.candidates[i].index] = i;
    bound[plan.candidates[i].index] = plan.candidates[i].bound;
  }

  std::string out = "scatter partitions=" + std::to_string(partitions_.size()) +
                    " candidates=" + std::to_string(plan.candidates.size()) +
                    " pruned_by_predicate=" +
                    std::to_string(plan.pruned_by_predicate) +
                    " skipped_empty=" + std::to_string(plan.skipped_empty) +
                    "\n";
  for (size_t i = 0; i < partitions_.size(); ++i) {
    const Part& part = *partitions_[i];
    out += "partition=" + part.name + " range=" + part.range.ToString();
    if (order[i] == SIZE_MAX) {
      out += part.has_rows ? " pruned=predicate" : " skipped=empty";
      out += "\n";
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), " order=%zu bound=%.6g", order[i],
                  bound[i]);
    out += buf;
    auto explain = part.db->Explain(query, opts);
    if (explain.ok()) {
      std::snprintf(buf, sizeof(buf), " engine=%s est_pages=%.1f",
                    explain.value().chosen_engine.c_str(),
                    explain.value().estimated_pages);
      out += buf;
    } else {
      out += " engine=<" + std::string(explain.status().message()) + ">";
    }
    out += "\n";
  }
  return out;
}

PartitionedDbStats PartitionedDb::Stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  PartitionedDbStats out;
  out.partitions = partitions_.size();
  out.durable = durable();
  for (const auto& part : partitions_) {
    DbStats stats = part->db->Stats();
    out.rows += stats.rows;
    out.live_rows += stats.live_rows;
    out.ranges[part->name] = part->range;
    out.per_partition.emplace_back(part->name, std::move(stats));
  }
  out.cache = cache_.Stats();
  std::lock_guard<std::mutex> t(traffic_mu_);
  out.queries_executed = queries_executed_;
  out.query_failures = query_failures_;
  out.partitions_queried = partitions_queried_;
  out.partitions_pruned = partitions_pruned_;
  return out;
}

Result<DbStats> PartitionedDb::PartitionStats(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Part* part = FindLocked(name);
  if (part == nullptr) return Status::NotFound("no partition '" + name + "'");
  return part->db->Stats();
}

Result<const RankCubeDb*> PartitionedDb::Partition(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const Part* part = FindLocked(name);
  if (part == nullptr) return Status::NotFound("no partition '" + name + "'");
  return const_cast<const RankCubeDb*>(part->db.get());
}

}  // namespace rankcube
