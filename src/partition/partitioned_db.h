// PartitionedDb: a ranking-cube database whose unit of management is the
// named partition — a key range (or time window) over one selection
// dimension. Each partition is a full, independent RankCubeDb: its own
// Table epoch and DeltaStore, its own lazily built engines through the
// shared registry, and — in durable mode — its own subdirectory with its
// own WAL and checkpoint generation. Nothing engine-specific lives here:
// partitioning composes the existing stack.
//
//   PartitionedDb::Options opts;
//   opts.schema = schema;          // shared by every partition
//   opts.partition_dim = 0;        // e.g. the time-window dimension
//   auto db = PartitionedDb::Open(std::move(opts)).value();
//   db->CreatePartition("w0", {0, 4});
//   db->CreatePartition("w1", {4, 8});
//   ...
//   auto top = db->Query(query);   // scatter-gather with pruning
//   db->DropPartition("w0");       // O(1) retention: manifest commit + GC
//
// Query path: predicate ∩ partition bounds drops whole partitions before
// any planning (pruning.h), survivors execute their own planner-routed
// top-k in parallel waves ordered by best-possible score, and the merge
// early-terminates once the global S_k strictly beats every remaining
// partition's bound. Results are tuple-identical to running the same query
// over one unpartitioned table holding the union of the rows (the
// partition_test oracle), with the deterministic tie-break
// (score, partition creation order, tid).
//
// Retention: DropPartition removes the entry from the root PARTITIONS
// manifest — one atomic file replace, no I/O proportional to partition
// size — then garbage-collects the partition's files after the commit
// point. A crash between the two leaves orphan files that the next Open
// (or a re-create under the same name) cleans up; the manifest alone
// decides what exists.
//
// Concurrency: one shared_mutex. Queries, Stats and Checkpoint hold it
// shared; Insert/Delete (which also maintain the per-partition rank
// bounding boxes), CreatePartition, DropPartition and Compact hold it
// exclusively. A drop therefore drains in-flight queries first, so a query
// sees every partition it started with in full or not at all — never half
// of one.
#ifndef RANKCUBE_PARTITION_PARTITIONED_DB_H_
#define RANKCUBE_PARTITION_PARTITIONED_DB_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "partition/partition_manifest.h"
#include "partition/pruning.h"
#include "planner/rank_cube_db.h"

namespace rankcube {

/// A row's address in a partitioned db: tids are dense PER PARTITION (a
/// global id could not survive per-partition WAL recovery), so the pair is
/// the stable identity.
struct PartitionedRowRef {
  std::string partition;
  Tid tid = 0;
};

/// One ranked answer with its home partition.
struct PartitionedTuple {
  std::string partition;
  Tid tid = 0;
  double score = 0.0;
  bool operator==(const PartitionedTuple&) const = default;
};

/// What the scatter did for one query.
struct ScatterStats {
  size_t partitions = 0;            ///< live partitions at plan time
  size_t pruned_by_predicate = 0;   ///< key range excluded the partition
  size_t skipped_empty = 0;
  size_t pruned_by_bound = 0;  ///< S_k beat the partition's best possible
  size_t queried = 0;          ///< partitions that actually executed
};

struct PartitionedTopK {
  std::vector<PartitionedTuple> tuples;  ///< ascending (score, seq, tid)
  /// Aggregated over the queried partitions (pages et al. sum); time_ms is
  /// the scatter's wall time, not the sum of per-partition times.
  ExecStats stats;
  ScatterStats scatter;
};

/// Point-in-time snapshot of one partition (ListPartitions).
struct PartitionInfo {
  std::string name;
  PartitionRange range;
  uint64_t rows = 0;
  uint64_t live_rows = 0;
  uint64_t epoch = 0;
  bool read_only = false;
};

/// Stats() payload: aggregate + per-partition DbStats (each carrying the
/// partition's own durability counters — WAL records since its last
/// checkpoint, checkpoint generation, backing reads).
struct PartitionedDbStats {
  size_t partitions = 0;
  uint64_t rows = 0;
  uint64_t live_rows = 0;
  bool durable = false;
  // -- scatter traffic since construction --
  uint64_t queries_executed = 0;
  uint64_t query_failures = 0;
  uint64_t partitions_queried = 0;
  uint64_t partitions_pruned = 0;  ///< predicate + bound, cumulative
  /// Scatter result cache (all zero when Options::cache.max_bytes == 0).
  ResultCacheStats cache;
  std::vector<std::pair<std::string, DbStats>> per_partition;  ///< seq order
  std::map<std::string, PartitionRange> ranges;

  /// "key=value" lines; per-partition stats flattened under
  /// "partition.<name>." — the partitioned STATS wire payload.
  std::string ToString() const;
};

class PartitionedDb {
 public:
  struct Options {
    /// Row schema shared by every partition.
    TableSchema schema;
    /// Selection dimension whose values route rows to partitions.
    int partition_dim = 0;
    /// Per-partition database template (store geometry, engine set,
    /// caches, feedback). `db.durability` is ignored — durable layout is
    /// governed by `data_dir` below.
    RankCubeDb::Options db;
    /// Root directory for durable mode; empty = ephemeral. Each partition
    /// lives in `data_dir`/<name>/ with its own manifest + WAL +
    /// checkpoints; `data_dir`/PARTITIONS is the root manifest.
    std::string data_dir;
    FsyncPolicy fsync = FsyncPolicy::kBatch;
    Fs* fs = nullptr;  ///< nullptr = Fs::Posix() (FaultFs injectable)
    /// Parallelism of the gather: candidates run in waves of this many
    /// threads (1 = sequential, fully utilizing the bound-order early
    /// termination; results are identical either way).
    int scatter_threads = 4;
    /// Scatter-level result cache (exact hits only; disabled by default).
    /// The epoch tag folds the (seq, epoch) of every partition the query's
    /// predicates could touch, so a write to one partition invalidates
    /// only the entries whose answer could have read it. Inner
    /// per-partition caches stay governed by `db.cache`.
    ResultCacheOptions cache;
  };

  /// Creates an empty partitioned db (ephemeral), or opens `data_dir`:
  /// loads the PARTITIONS manifest, recovers every listed partition
  /// through RankCubeDb::Open (per-partition WAL replay), GCs orphan
  /// partition directories a crashed create/drop left behind, and rebuilds
  /// the per-partition rank bounding boxes. A fresh durable dir commits an
  /// empty manifest. Fails on a corrupt root manifest or a
  /// partition_dim/schema mismatch with the recovered state.
  static Result<std::unique_ptr<PartitionedDb>> Open(Options options);

  PartitionedDb(const PartitionedDb&) = delete;
  PartitionedDb& operator=(const PartitionedDb&) = delete;

  const TableSchema& schema() const { return options_.schema; }
  int partition_dim() const { return options_.partition_dim; }
  bool durable() const { return !options_.data_dir.empty(); }

  // --- partition management ------------------------------------------------

  /// Creates an empty partition covering `range`. Fails (kInvalidArgument)
  /// on a bad name, an empty or out-of-domain range, or overlap with an
  /// existing partition; (kAlreadyExists) on a duplicate name. Durable
  /// mode: the partition directory is seeded (checkpoint + empty WAL)
  /// before the root manifest commit makes it visible — a crash in between
  /// leaves only an orphan directory.
  Status CreatePartition(const std::string& name, PartitionRange range);

  /// Same, seeded with `seed` as the partition's initial bulk-loaded state
  /// (every row's partition-dim value must lie inside `range`).
  Status CreatePartition(const std::string& name, PartitionRange range,
                         Table seed);

  /// Drops the partition: O(1) — removes the manifest entry (atomic
  /// replace, the commit point), then deletes the partition's files. No
  /// page I/O proportional to partition size. Blocks until in-flight
  /// queries drain; queries started after see the partition gone entirely.
  Status DropPartition(const std::string& name);

  /// Live partitions in creation (merge tie-break) order.
  std::vector<PartitionInfo> ListPartitions() const;

  // --- write path ----------------------------------------------------------

  /// Routes the row to the partition whose range contains
  /// sel[partition_dim]; kNotFound when no partition covers it.
  Result<PartitionedRowRef> Insert(const std::vector<int32_t>& sel,
                                   const std::vector<double>& rank);

  Status Delete(const std::string& partition, Tid tid);

  /// Compacts every partition (absorb delta, refresh structures,
  /// checkpoint when durable) and recomputes the exact rank bounding box of
  /// each partition that absorbed rows — the boxes only ever grow between
  /// compactions, so this also restores tight score bounds for pruning. A
  /// partition with nothing to absorb costs nothing.
  Result<CompactionReport> Compact();  ///< aggregated over partitions

  /// Durable-shutdown barrier: Checkpoint() on every partition.
  Status Checkpoint();

  // --- read path -----------------------------------------------------------

  /// Scatter-gather top-k over the live partitions (see file comment).
  /// QueryOptions apply per partition (force_engine, page_budget — each
  /// queried partition gets the full budget — deadline).
  Result<PartitionedTopK> Query(const TopKQuery& query,
                                const QueryOptions& opts = QueryOptions());

  /// The scatter plan without executing: per partition, the pruning
  /// decision, the score bound, and the engine its planner would choose.
  Result<std::string> ExplainScatter(
      const TopKQuery& query, const QueryOptions& opts = QueryOptions()) const;

  PartitionedDbStats Stats() const;
  Result<DbStats> PartitionStats(const std::string& name) const;

  // --- scatter result cache ------------------------------------------------

  bool cache_enabled() const { return cache_.enabled(); }
  ResultCacheStats CacheStats() const { return cache_.Stats(); }
  void ClearCache() { cache_.Clear(); }
  void ResizeCache(size_t max_bytes) { cache_.Resize(max_bytes); }

  /// The partition's database, for tests and read-only inspection; valid
  /// until the partition is dropped.
  Result<const RankCubeDb*> Partition(const std::string& name) const;

 private:
  struct Part {
    std::string name;
    PartitionRange range;
    uint64_t seq = 0;  ///< creation order: the merge tie-break
    std::unique_ptr<RankCubeDb> db;
    /// Conservative bounding box over live rows' rank coordinates; grows
    /// on Insert, recomputed exactly by Compact and at Open. Meaningful
    /// only when has_rows.
    Box rank_box;
    bool has_rows = false;
  };

  explicit PartitionedDb(Options options);

  /// Must hold mu_ exclusively. Shared tail of the CreatePartition
  /// overloads.
  Status CreatePartitionLocked(const std::string& name, PartitionRange range,
                               Table seed);
  /// Rewrites the root PARTITIONS manifest from partitions_ (durable mode
  /// only). Must hold mu_ exclusively.
  Status CommitManifestLocked();
  /// Recomputes part->rank_box/has_rows from its table's live rows.
  static void RecomputeRankBox(Part* part);
  /// Best-effort removal of every file under `data_dir`/`name`.
  void GcPartitionDir(const std::string& name);

  const Part* FindLocked(const std::string& name) const;

  /// Must hold mu_ (shared suffices). The cache epoch tag for `query`:
  /// "seq:epoch;" of every partition whose range a predicate on the
  /// partition dimension does not statically exclude — membership changes
  /// (create/drop, seqs never reused) and relevant writes both change the
  /// tag, writes to excluded partitions do not.
  std::string EpochTagLocked(const TopKQuery& query) const;

  Options options_;
  /// Internally synchronized; populated under the shared read gate.
  ResultCache cache_;
  Fs* fs_ = nullptr;  ///< resolved (Posix when options_.fs is null)
  uint64_t next_seq_ = 0;

  /// Queries/Stats/Checkpoint shared; Insert/Delete/Compact/Create/Drop
  /// exclusive (see file comment).
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Part>> partitions_;  ///< creation order

  /// Cumulative scatter counters behind Stats(); guarded by traffic_mu_
  /// (queries hold mu_ only shared).
  mutable std::mutex traffic_mu_;
  uint64_t queries_executed_ = 0;
  uint64_t query_failures_ = 0;
  uint64_t partitions_queried_ = 0;
  uint64_t partitions_pruned_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_PARTITION_PARTITIONED_DB_H_
