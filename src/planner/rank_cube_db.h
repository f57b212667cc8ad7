// RankCubeDb: the primary public API of this repository.
//
// A RankCubeDb owns a relation, its simulated block device, and a catalog
// of every registered physical access structure (grid ranking cube,
// fragments, signature cube, R-tree, boolean-first indexes, table scan,
// index-merge, ...). Callers submit logical top-k queries —
//
//   RankCubeDb db(std::move(table));
//   auto result = db.Query(QueryBuilder()
//                              .Where(0, red).Where(2, sedan)
//                              .OrderByLinear({1.0, 2.0})
//                              .Limit(10)
//                              .Build());
//
// — and never name an engine: a cost-based planner estimates the page
// reads of every cataloged structure (the paper's block-access analysis)
// and routes the query to the cheapest feasible one. Structures are built
// lazily, the first time a plan chooses them; their exact statistics then
// replace the catalog's analytic predictions. The decision is returned in
// TopKResult::plan, and Explain() exposes it without executing anything.
//
// The db is also the write path. Insert/Delete mutate the owned table and
// its delta store; every query stays exact immediately (stale structures
// overlay the delta, see engine/engine.h), and the planner prices that
// overlay — a structure that drifted far enough loses to a scan until
// Compact() brings every built structure back to the current epoch
// (incrementally where the structure supports it, by rebuild otherwise)
// and refreshes the statistics.
//
// Concurrency: reads (Query/Explain/Engine) share the db; writes
// (Insert/Delete/Compact) take it exclusively — the standard
// single-writer/many-readers contract, enforced internally with a shared
// mutex, so mixed workloads need no external locking.
//
// force_engine in QueryOptions pins a specific structure (every engine
// remains individually reachable, e.g. for the parity tests and figure
// benches); optimize_for switches the cost objective between raw pages
// and device-weighted latency.
#ifndef RANKCUBE_PLANNER_RANK_CUBE_DB_H_
#define RANKCUBE_PLANNER_RANK_CUBE_DB_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cache/feedback.h"
#include "cache/query_key.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "planner/planner.h"
#include "storage/durability.h"
#include "storage/page_store.h"
#include "storage/table.h"

namespace rankcube {

/// Consistent point-in-time snapshot of the db: relation size, delta
/// drift, per-structure freshness, and the cumulative query-traffic
/// counters (the payload of the server's STATS verb). Taken under the
/// same reader gate queries hold, so the fields are mutually consistent —
/// rows/epoch/freshness all reflect one instant.
struct DbStats {
  // -- relation --
  uint64_t rows = 0;       ///< heap rows incl. tombstones
  uint64_t live_rows = 0;  ///< rows minus tombstones
  uint64_t epoch = 0;
  uint64_t compacted_epoch = 0;
  uint64_t pending_inserts = 0;  ///< log entries since the last compaction
  uint64_t pending_deletes = 0;  ///< (the delta drift every stale structure
                                 ///< pays for at query time)
  // -- structures --
  size_t engines_cataloged = 0;
  size_t engines_built = 0;
  std::map<std::string, FreshnessInfo> freshness;  ///< built engines only
  uint64_t construction_pages = 0;
  // -- query traffic since construction --
  uint64_t queries_executed = 0;
  uint64_t query_failures = 0;  ///< incl. budget/deadline rejections
  uint64_t pages_logical = 0;
  uint64_t pages_charged = 0;  ///< deterministic per-query accounting
  uint64_t pages_device = 0;   ///< actual simulated device reads
  /// Shared-buffer-cache hit rate over all query I/O so far
  /// (1 - device/logical); 0 when no pages were read yet.
  double cache_hit_rate = 0.0;
  /// Result cache (all zero when Options::cache.max_bytes == 0).
  ResultCacheStats cache;
  // -- durability (all zero for an ephemeral db) --
  bool durable = false;    ///< opened with a data_dir (WAL + checkpoints)
  bool read_only = false;  ///< degraded: serving last good state, writes
                           ///< refused with kNotSupported
  std::string degraded_reason;     ///< set iff read_only
  uint64_t checkpoint_epoch = 0;   ///< epoch of the live checkpoint file
  /// Checkpoints committed over the data dir's lifetime (1 = seed);
  /// advances on every Checkpoint() even when the epoch did not, and on
  /// every Compact() that has work to do.
  uint64_t checkpoint_generation = 0;
  uint64_t wal_records = 0;  ///< records in the live WAL segment — i.e.
                             ///< since the last checkpoint (the recovery
                             ///< exposure an operator watches)
  uint64_t wal_bytes = 0;
  uint64_t backing_reads = 0;         ///< verified checkpoint preads
  uint64_t backing_corruptions = 0;   ///< CRC failures on those reads
  uint64_t recovered_records = 0;     ///< WAL records replayed at open
  double recovery_ms = 0.0;

  /// "key=value" lines, one per field (freshness flattened per engine);
  /// the STATS wire payload and a debugging aid.
  std::string ToString() const;
};

/// What one Compact() call did.
struct CompactionReport {
  uint64_t epoch = 0;            ///< epoch every structure now reflects
  uint64_t absorbed_inserts = 0; ///< log entries folded in
  uint64_t absorbed_deletes = 0;
  size_t maintained = 0;  ///< structures incrementally maintained
  size_t rebuilt = 0;     ///< structures rebuilt from scratch
  uint64_t pages = 0;     ///< physical maintenance + rebuild I/O
};

class RankCubeDb {
 public:
  struct Options {
    /// Block-device geometry shared by the table and every structure.
    PageStore::Options store;
    /// Per-family construction knobs handed to the engine factories.
    EngineBuildOptions build;
    /// Registry keys to catalog; empty = every registered engine. Keys
    /// outside this list are not plannable and not forceable on this db.
    std::vector<std::string> engines;
    /// Durable-storage knobs; used only by Open() (data_dir must be set
    /// there). The plain constructor ignores this and stays ephemeral.
    DurabilityOptions durability;
    /// Workload-aware result cache (cache/result_cache.h). Disabled by
    /// default (max_bytes == 0): existing callers keep the exact page
    /// accounting of the uncached path; rankcubed opts in via --cache_mb.
    ResultCacheOptions cache;
    /// True-cost planner feedback (cache/feedback.h); on by default —
    /// corrections start at 1.0, so routing is unchanged until measured
    /// I/O says otherwise.
    CostFeedbackOptions feedback;
  };

  /// Takes ownership of `table`; computes TableStats (one in-memory pass)
  /// and catalogs predicted AccessStructureInfo for every engine. Builds
  /// nothing. The db is EPHEMERAL: no WAL, no checkpoints — the historical
  /// in-memory behavior every existing caller gets unchanged.
  explicit RankCubeDb(Table table, Options options = Options());

  /// Opens a DURABLE db against options.durability.data_dir, running the
  /// crash-recovery state machine (storage/durability.h). A fresh directory
  /// is seeded from `seed` (checkpoint + empty WAL); an existing one
  /// recovers its own state and ignores `seed`. After unrecoverable WAL
  /// damage the db comes up read-only at the last consistent state —
  /// Stats().read_only / degraded_reason carry the typed flag, and every
  /// write returns kNotSupported. Hard-fails (kCorruption) only when the
  /// manifest or checkpoint is too damaged to serve anything.
  static Result<std::unique_ptr<RankCubeDb>> Open(Table seed, Options options);

  RankCubeDb(const RankCubeDb&) = delete;
  RankCubeDb& operator=(const RankCubeDb&) = delete;

  const Table& table() const { return table_; }
  const PageStore& store() const { return store_; }
  const TableStats& table_stats() const { return stats_; }

  // --- write path ---------------------------------------------------------

  /// Appends a row (validated like Table::AddRow); returns its tid. Every
  /// built structure becomes stale by one mutation; queries remain exact
  /// through the delta overlay, and the exact statistics the planner reads
  /// are adjusted in place.
  Result<Tid> Insert(const std::vector<int32_t>& sel,
                     const std::vector<double>& rank);

  /// Tombstones a live row. Same staleness/overlay story as Insert.
  Status Delete(Tid tid);

  /// Folds the whole mutation log into every built structure — calling
  /// RankingEngine::Maintain where supported (grid, fragments, signature,
  /// ranking_first), rebuilding from scratch otherwise — then truncates
  /// the log, recomputes TableStats and upgrades every catalog entry to
  /// the maintained structure's exact Describe(). After Compact, queries
  /// pay no delta overlay until the next write. Rebuilds invalidate
  /// pointers previously returned by Engine() for the rebuilt keys. With
  /// nothing to absorb (empty log, every built structure fresh, and when
  /// durable the last successful checkpoint at the current epoch) it does
  /// nothing — no stats, catalog or checkpoint pass — and reports zeros.
  Result<CompactionReport> Compact();

  // --- read path ----------------------------------------------------------

  /// Plans + executes one query in a fresh I/O session. The result carries
  /// the chosen plan (TopKResult::plan) next to the measured ExecStats.
  Result<TopKResult> Query(const TopKQuery& query,
                           const QueryOptions& opts = QueryOptions());

  /// The plan Query() would run, without building or executing anything.
  Result<PlanInfo> Explain(const TopKQuery& query,
                           const QueryOptions& opts = QueryOptions()) const;

  /// The engine under `name`, built on first use (thread-safe; build I/O
  /// is charged to the db's construction session). The pointer stays valid
  /// until the db dies or Compact() rebuilds that engine.
  Result<const RankingEngine*> Engine(const std::string& name);

  /// Catalog snapshot: predicted entries, upgraded in place to exact
  /// Describe() output for structures that have been built.
  std::vector<AccessStructureInfo> CatalogEntries() const;

  /// Registry keys this db catalogs (sorted) — the supported way to
  /// enumerate the candidates Explain() costs, without probing the
  /// NotFound path.
  std::vector<std::string> Keys() const;

  /// Per-structure freshness snapshot for every *built* engine.
  std::map<std::string, FreshnessInfo> FreshnessByEngine() const;

  /// Consistent snapshot of relation size, delta drift, per-engine
  /// freshness and cumulative query-traffic counters (see DbStats).
  /// Excludes writers for the duration of the snapshot.
  DbStats Stats() const;

  // --- result cache + planner feedback ------------------------------------

  bool cache_enabled() const { return cache_.enabled(); }
  ResultCacheStats CacheStats() const { return cache_.Stats(); }
  void ClearCache() { cache_.Clear(); }
  /// Adjusts the cache byte budget at runtime (0 disables).
  void ResizeCache(size_t max_bytes) { cache_.Resize(max_bytes); }

  /// Learned per-engine-family cost corrections (empty until queries ran).
  std::map<std::string, CostFeedback::FamilyState> FeedbackSnapshot() const {
    return feedback_.Snapshot();
  }
  void ResetFeedback() { feedback_.Reset(); }
  /// Runtime feedback toggle (benches measure the raw cost model with it
  /// off, then re-enable to learn).
  void SetFeedbackEnabled(bool on) { feedback_.set_enabled(on); }

  // --- durability ---------------------------------------------------------

  bool durable() const { return durability_ != nullptr; }
  /// Degraded mode: serving the last consistent state, writes refused.
  bool read_only() const;
  /// What Open() found and did (default-constructed for ephemeral dbs).
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Durable-shutdown barrier: forces the WAL to stable storage and takes
  /// a checkpoint at the current epoch, WITHOUT touching the delta log —
  /// built engines still need their ChangesSince suffix, so this is safe
  /// to call at any point (rankcubed runs it on SIGTERM). Compact() also
  /// checkpoints, after it truncates the log.
  Status Checkpoint();

  /// Physical pages charged by all lazy structure builds so far.
  uint64_t construction_pages() const;

 private:
  /// Route's answer for one query: the built engine that should run it and
  /// the plan record to attach to its result.
  struct RoutedEngine {
    const RankingEngine* engine = nullptr;
    std::shared_ptr<const PlanInfo> plan;
  };

  /// Plans `query` and returns the built engine + plan.
  Result<RoutedEngine> Route(const TopKQuery& query,
                             const QueryOptions& opts);

  /// The full read pipeline for one query — cache lookup, certified
  /// sibling reuse, planner-routed execution with overfetch, cache insert,
  /// feedback observation — inside `ctx`. Caller must hold ddl_mu_ shared
  /// and own ctx.io (fresh per query).
  Result<TopKResult> ExecuteQueryLocked(const TopKQuery& query,
                                        const QueryOptions& opts,
                                        ExecContext& ctx);

  /// Attempts to answer `query` exactly from a cached sibling entry (same
  /// predicates and k, different ranking function) by re-ranking its
  /// candidate set and certifying with the interval bound on |g - f|.
  /// nullopt = certification failed; caller falls back to full execution.
  std::optional<TopKResult> TryReuseLocked(const TopKQuery& query,
                                           const CanonicalQuery& key,
                                           const std::string& epoch_tag,
                                           const CachedResult& entry,
                                           ExecContext& ctx);

  /// Must hold mu_. Builds `name` if needed and returns it.
  Result<const RankingEngine*> EngineLocked(const std::string& name);

  /// Must hold ddl_mu_ exclusively. Latches degraded read-only mode after
  /// a WAL failure (the mutation was never applied, so memory and disk
  /// stay consistent — we just refuse to diverge further).
  void DegradeLocked(const std::string& reason);

  Table table_;
  PageStore store_;
  TableStats stats_;
  Options options_;
  /// Both internally synchronized; populated on the read path under the
  /// shared ddl gate (readers race each other, never a writer).
  ResultCache cache_;
  CostFeedback feedback_;

  /// Set only by Open(); null = ephemeral. Mutated (Log*/Checkpoint) under
  /// ddl_mu_ exclusive; read-side getters take ddl_mu_ shared.
  std::unique_ptr<DurabilityManager> durability_;
  RecoveryInfo recovery_;
  /// Guarded by ddl_mu_ (written under exclusive, read under shared).
  bool read_only_ = false;

  /// Read/write gate: queries and Explain hold it shared for their whole
  /// duration, Insert/Delete/Compact hold it exclusively — appending to the
  /// column vectors or maintaining a structure must never race a reader's
  /// rank_col() view. Acquired before mu_ everywhere.
  mutable std::shared_mutex ddl_mu_;

  /// Guards catalog_, engines_, stats_ and build_io_: planning is a pure
  /// in-memory computation and builds are rare, so one coarse lock
  /// suffices; query execution itself runs outside the lock on per-query
  /// sessions.
  mutable std::mutex mu_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<RankingEngine>> engines_;
  IoSession build_io_;

  /// Cumulative query-traffic counters behind Stats(); guarded by mu_
  /// (bumped once per query, never on the page path).
  struct TrafficCounters {
    uint64_t queries_executed = 0;
    uint64_t query_failures = 0;
    uint64_t pages_logical = 0;
    uint64_t pages_charged = 0;
    uint64_t pages_device = 0;
  };
  TrafficCounters traffic_;
};

}  // namespace rankcube

#endif  // RANKCUBE_PLANNER_RANK_CUBE_DB_H_
