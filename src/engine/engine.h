// The unified top-k execution interface (§1.2.1's query model as an API).
//
// The thesis's central claim is that ranking cubes, fragments, signature
// cubes and the comparator baselines are interchangeable executors of the
// same multi-dimensionally selected top-k query. This layer makes that
// interchangeability literal: every engine is a RankingEngine answering
//   Result<TopKResult> Execute(const TopKQuery&, ExecContext&)
// and nothing else. Engines are obtained from EngineRegistry (registry.h)
// and queries are assembled with QueryBuilder (query_builder.h).
#ifndef RANKCUBE_ENGINE_ENGINE_H_
#define RANKCUBE_ENGINE_ENGINE_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/topk_query.h"
#include "engine/structure_info.h"
#include "func/query.h"
#include "storage/io_session.h"
#include "storage/table.h"

namespace rankcube {

/// Per-query execution environment: the I/O session every page access is
/// charged to (one session per query — never shared across threads), an
/// optional I/O budget and an optional deadline.
struct ExecContext {
  IoSession* io = nullptr;

  /// Physical pages one query may read; 0 = unlimited. Exceeding the budget
  /// fails the query with Status::OutOfRange (the result is discarded), the
  /// admission-control contract a serving layer needs.
  uint64_t page_budget = 0;

  /// Wall-clock deadline; default-constructed = none. Checked in the same
  /// place as page_budget: a query already past its deadline is rejected
  /// before doing any work, and one that finishes past it fails with
  /// Status::DeadlineExceeded (distinct from the budget's OutOfRange, so a
  /// serving layer can tell "too slow" from "too expensive"). The result of
  /// an overrunning query is discarded, exactly like a budget overrun.
  std::chrono::steady_clock::time_point deadline{};

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool deadline_passed() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline;
  }
};

/// What an engine returns: the ranked tuples plus the execution counters the
/// benchmarks report (time, page accesses, states, peak heap, ...).
struct TopKResult {
  std::vector<ScoredTuple> tuples;
  ExecStats stats;
  /// The planner's decision when this execution was planner-routed
  /// (RankCubeDb); null for direct RankingEngine::Execute calls.
  std::shared_ptr<const PlanInfo> plan;
};

/// How far an engine's structures lag behind the table's mutation log.
struct FreshnessInfo {
  uint64_t built_epoch = 0;  ///< epoch the structures reflect
  uint64_t table_epoch = 0;  ///< the table's current epoch
  uint64_t pending_inserts = 0;  ///< appended rows the structures miss
  uint64_t pending_deletes = 0;  ///< tombstones the structures still carry

  bool fresh() const { return built_epoch >= table_epoch; }
};

/// Polymorphic top-k engine. Subclasses implement ExecuteImpl; the
/// non-virtual Execute wraps it with the shared contract:
///  1. the query is validated (ValidateQuery) against the engine's table,
///  2. engines that cannot evaluate boolean predicates reject them,
///  3. when the engine's structures are stale (the table mutated after they
///     were built/maintained), the result is made exact by a delta overlay:
///     the structure answers top-(k + pending deletes) over its own epoch,
///     tombstoned tuples are filtered, and the appended rows are scanned
///     exactly (batch-scored, heap tail pages charged) and merged in,
///  4. physical page reads are metered against ctx.page_budget and the
///     wall clock against ctx.deadline.
///
/// Maintenance is explicit and never concurrent with queries: Maintain()
/// mutates the underlying structures, so callers (RankCubeDb::Compact)
/// must hold exclusive access.
class RankingEngine {
 public:
  /// Captures the table's current epoch as the default built_epoch — every
  /// factory constructs the engine right after its structures.
  RankingEngine(std::string name, const Table* table)
      : name_(std::move(name)),
        table_(table),
        built_epoch_(table->epoch()) {}
  virtual ~RankingEngine() = default;

  /// Registry key this engine was created under ("grid", "table_scan", ...).
  const std::string& name() const { return name_; }
  const Table& table() const { return *table_; }

  /// False for engines whose query model has no boolean selections
  /// (Ch5 index-merge); Execute rejects predicated queries up front.
  virtual bool SupportsPredicates() const { return true; }

  /// Bytes of auxiliary structures (cuboids, signatures, indices) this
  /// engine queries; 0 for scan-only engines. Drives the space figures.
  virtual size_t SizeBytes() const { return 0; }

  /// Exact self-description for the planner's catalog: capabilities plus
  /// the statistics the cost model reads (structure_info.h). The base
  /// implementation fills the fields every engine shares (name, predicate
  /// support, size, built = true, built_epoch); engines with
  /// structure-specific stats (grid geometry, cuboid cells, tree shape)
  /// extend it.
  virtual AccessStructureInfo Describe() const;

  /// Table epoch this engine's structures reflect. Engines wrapping an
  /// epoch-tracking structure return the structure's; scan engines return
  /// the current epoch (a scan is always fresh); the default is the epoch
  /// captured at engine construction.
  virtual uint64_t BuiltEpoch() const { return built_epoch_; }

  /// Staleness report against the table's delta store.
  FreshnessInfo Freshness() const;

  /// True when Maintain() incrementally absorbs deltas (grid, fragments,
  /// signature, R-tree engines). Engines without an incremental path stay
  /// correct through the Execute overlay and are rebuilt at compaction.
  virtual bool SupportsMaintenance() const { return false; }

  /// Incrementally absorbs the mutations after BuiltEpoch(), charging
  /// maintenance I/O to `io`. Default: NotSupported. Not thread-safe with
  /// respect to concurrent Execute calls — see the class comment.
  virtual Status Maintain(IoSession* io);

  /// Answers `query` inside `ctx`. Never throws; all failure modes —
  /// malformed query, missing cuboid, exhausted budget — come back as a
  /// non-ok Status, identically across engines. Results are fresh even
  /// when the structures are stale (delta overlay, see class comment).
  Result<TopKResult> Execute(const TopKQuery& query, ExecContext& ctx) const;

 protected:
  virtual Result<TopKResult> ExecuteImpl(const TopKQuery& query,
                                         ExecContext& ctx) const = 0;

  /// For engines that track their own epoch (e.g. after maintaining a
  /// wrapped index that does not record one).
  void set_built_epoch(uint64_t epoch) { built_epoch_ = epoch; }

 private:
  /// Runs ExecuteImpl for a stale engine and overlays the delta: filter
  /// tombstones out of the (k + D)-deep structure answer, scan + score the
  /// appended rows, merge. Exact for every engine because each engine is
  /// exact over its own epoch's content at any k.
  Result<TopKResult> ExecuteWithOverlay(const TopKQuery& query,
                                        ExecContext& ctx) const;

  std::string name_;
  const Table* table_;
  uint64_t built_epoch_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_ENGINE_ENGINE_H_
