#include "planner/rank_cube_db.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "func/kernels/kernels.h"
#include "func/score_expr.h"
#include "planner/cost_model.h"

namespace rankcube {

std::string DbStats::ToString() const {
  std::ostringstream os;
  os << "rows=" << rows << "\n"
     << "live_rows=" << live_rows << "\n"
     << "epoch=" << epoch << "\n"
     << "compacted_epoch=" << compacted_epoch << "\n"
     << "pending_inserts=" << pending_inserts << "\n"
     << "pending_deletes=" << pending_deletes << "\n"
     << "engines_cataloged=" << engines_cataloged << "\n"
     << "engines_built=" << engines_built << "\n"
     << "construction_pages=" << construction_pages << "\n"
     << "queries_executed=" << queries_executed << "\n"
     << "query_failures=" << query_failures << "\n"
     << "pages_logical=" << pages_logical << "\n"
     << "pages_charged=" << pages_charged << "\n"
     << "pages_device=" << pages_device << "\n"
     << "cache_hit_rate=" << cache_hit_rate << "\n"
     << cache.ToString("cache_")
     << "durable=" << (durable ? 1 : 0) << "\n"
     << "read_only=" << (read_only ? 1 : 0) << "\n";
  if (durable) {
    if (!degraded_reason.empty()) {
      os << "degraded_reason=" << degraded_reason << "\n";
    }
    os << "checkpoint_epoch=" << checkpoint_epoch << "\n"
       << "checkpoint_generation=" << checkpoint_generation << "\n"
       << "wal_records=" << wal_records << "\n"
       << "wal_bytes=" << wal_bytes << "\n"
       << "backing_reads=" << backing_reads << "\n"
       << "backing_corruptions=" << backing_corruptions << "\n"
       << "recovered_records=" << recovered_records << "\n"
       << "recovery_ms=" << recovery_ms << "\n";
  }
  for (const auto& [name, f] : freshness) {
    os << "freshness." << name << "=" << f.built_epoch << "/" << f.table_epoch
       << "+" << f.pending_inserts << "-" << f.pending_deletes << "\n";
  }
  return os.str();
}

RankCubeDb::RankCubeDb(Table table, Options options)
    : table_(std::move(table)),
      store_(options.store),
      stats_(TableStats::Compute(table_, store_.page_size())),
      options_(std::move(options)),
      cache_(options_.cache),
      feedback_(options_.feedback),
      build_io_(&store_) {
  std::vector<std::string> names = options_.engines.empty()
                                       ? EngineRegistry::Global().Keys()
                                       : options_.engines;
  for (const std::string& name : names) {
    catalog_.Put(PredictStructureInfo(name, stats_, options_.build));
  }
}

Result<std::unique_ptr<RankCubeDb>> RankCubeDb::Open(Table seed,
                                                     Options options) {
  if (options.durability.data_dir.empty()) {
    return Status::InvalidArgument(
        "RankCubeDb::Open needs options.durability.data_dir (use the "
        "constructor for an ephemeral db)");
  }
  auto opened = DurabilityManager::Open(options.durability, seed);
  if (!opened.ok()) return opened.status();
  Table table = opened.value().table.has_value()
                    ? std::move(*opened.value().table)
                    : std::move(seed);
  auto db = std::unique_ptr<RankCubeDb>(
      new RankCubeDb(std::move(table), std::move(options)));
  db->durability_ = std::move(opened.value().manager);
  db->recovery_ = opened.value().info;
  db->read_only_ = db->recovery_.read_only;
  // kTable device misses now pread + CRC-verify the checkpoint file.
  db->store_.AttachTableBacking(db->durability_->checkpoint_pages());
  return db;
}

void RankCubeDb::DegradeLocked(const std::string& reason) {
  read_only_ = true;
  recovery_.read_only = true;
  if (recovery_.degraded_reason.empty()) {
    recovery_.degraded_reason = reason;
  }
}

bool RankCubeDb::read_only() const {
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  return read_only_;
}

Result<const RankingEngine*> RankCubeDb::EngineLocked(
    const std::string& name) {
  auto it = engines_.find(name);
  if (it != engines_.end()) return it->second.get();
  if (catalog_.Find(name) == nullptr) {
    return Status::NotFound("engine '" + name +
                            "' is not cataloged on this db");
  }
  auto built = EngineRegistry::Global().Create(name, table_, build_io_,
                                               options_.build);
  if (!built.ok()) return built.status();
  const RankingEngine* engine = built.value().get();
  engines_.emplace(name, std::move(built).value());
  // The structure now exists: its exact statistics replace the analytic
  // prediction for every later plan.
  catalog_.Put(engine->Describe());
  return engine;
}

Result<const RankingEngine*> RankCubeDb::Engine(const std::string& name) {
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return EngineLocked(name);
}

Result<Tid> RankCubeDb::Insert(const std::vector<int32_t>& sel,
                               const std::vector<double>& rank) {
  std::unique_lock<std::shared_mutex> write(ddl_mu_);
  if (read_only_) {
    return Status::NotSupported("db is read-only (" +
                                recovery_.degraded_reason + ")");
  }
  if (durability_ != nullptr) {
    // Write-ahead ordering: validate (so replay can never hit a validation
    // error the live path didn't), log + fsync, only then apply. A WAL
    // failure leaves the table untouched and latches read-only — memory
    // and disk stay consistent, we just refuse to diverge further.
    RC_RETURN_IF_ERROR(table_.ValidateRow(sel, rank));
    Status logged = durability_->LogInsert(table_.epoch() + 1, sel, rank);
    if (!logged.ok()) {
      DegradeLocked("wal append failed: " + logged.message());
      return logged;
    }
  }
  Result<Tid> tid = table_.Insert(sel, rank);
  if (!tid.ok()) return tid;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.ApplyInsert(table_, tid.value());
  return tid;
}

Status RankCubeDb::Delete(Tid tid) {
  std::unique_lock<std::shared_mutex> write(ddl_mu_);
  if (read_only_) {
    return Status::NotSupported("db is read-only (" +
                                recovery_.degraded_reason + ")");
  }
  if (durability_ != nullptr) {
    RC_RETURN_IF_ERROR(table_.CanDelete(tid));
    Status logged = durability_->LogDelete(table_.epoch() + 1, tid);
    if (!logged.ok()) {
      DegradeLocked("wal append failed: " + logged.message());
      return logged;
    }
  }
  RC_RETURN_IF_ERROR(table_.Delete(tid));
  std::lock_guard<std::mutex> lock(mu_);
  stats_.ApplyDelete(table_, tid);
  return Status::OK();
}

Status RankCubeDb::Checkpoint() {
  std::unique_lock<std::shared_mutex> write(ddl_mu_);
  if (durability_ == nullptr) {
    return Status::NotSupported("ephemeral db has nothing to checkpoint");
  }
  if (read_only_) {
    return Status::NotSupported("db is read-only (" +
                                recovery_.degraded_reason + ")");
  }
  RC_RETURN_IF_ERROR(durability_->SyncWal());
  RC_RETURN_IF_ERROR(durability_->Checkpoint(table_));
  store_.AttachTableBacking(durability_->checkpoint_pages());
  return Status::OK();
}

Result<CompactionReport> RankCubeDb::Compact() {
  std::unique_lock<std::shared_mutex> write(ddl_mu_);
  if (read_only_) {
    return Status::NotSupported("db is read-only (" +
                                recovery_.degraded_reason + ")");
  }
  std::lock_guard<std::mutex> lock(mu_);

  CompactionReport report;
  const DeltaStore& delta = table_.delta();
  report.epoch = table_.epoch();
  // Nothing to absorb: no row changed since the last compaction, every
  // built structure is fresh, and (when durable) the last successful
  // checkpoint already holds this epoch. Stats, catalog and checkpoint would
  // come out the same, so none is redone.
  bool clean = delta.compacted_epoch() == delta.epoch() &&
               (durability_ == nullptr ||
                durability_->checkpoint_epoch() == table_.epoch());
  for (const auto& [name, engine] : engines_) {
    (void)name;
    clean = clean && engine->Freshness().fresh();
  }
  if (clean) return report;

  report.absorbed_inserts = delta.InsertsSince(delta.compacted_epoch());
  report.absorbed_deletes = delta.DeletesSince(delta.compacted_epoch());
  uint64_t pages_before = build_io_.TotalPhysical();

  for (auto& [name, engine] : engines_) {
    if (engine->Freshness().fresh()) continue;
    if (engine->SupportsMaintenance()) {
      RC_RETURN_IF_ERROR(engine->Maintain(&build_io_));
      ++report.maintained;
    } else {
      // No incremental path (boolean_first postings, rank_mapping
      // composites, index_merge B+-trees): rebuild over the live table.
      auto rebuilt = EngineRegistry::Global().Create(name, table_, build_io_,
                                                     options_.build);
      if (!rebuilt.ok()) return rebuilt.status();
      engine = std::move(rebuilt).value();
      ++report.rebuilt;
    }
  }
  // Every built structure is at the current epoch: the log can go, and the
  // catalog's entries refresh to the maintained structures' exact stats.
  // Never-built entries get their analytic predictions re-derived from the
  // post-compaction statistics — geometry frozen at construction time
  // would misprice them arbitrarily as the relation grows.
  table_.MarkCompacted();
  stats_ = TableStats::Compute(table_, store_.page_size());
  for (const std::string& name : catalog_.Keys()) {
    if (engines_.count(name) == 0) {
      catalog_.Put(PredictStructureInfo(name, stats_, options_.build));
    }
  }
  for (const auto& [name, engine] : engines_) {
    (void)name;
    catalog_.Put(engine->Describe());
  }
  report.pages = build_io_.TotalPhysical() - pages_before;

  if (durability_ != nullptr) {
    // The delta log is truncated, so the compaction point is exactly the
    // state a checkpoint should capture: snapshot it, rotate the WAL, and
    // let recovery start from here. On failure the previous checkpoint +
    // WAL remain the recovery source — consistent, just longer to replay.
    RC_RETURN_IF_ERROR(durability_->SyncWal());
    RC_RETURN_IF_ERROR(durability_->Checkpoint(table_));
    store_.AttachTableBacking(durability_->checkpoint_pages());
  }
  return report;
}

Result<RankCubeDb::RoutedEngine> RankCubeDb::Route(const TopKQuery& query,
                                                   const QueryOptions& opts) {
  RC_RETURN_IF_ERROR(ValidateQuery(query, table_.schema()));
  std::lock_guard<std::mutex> lock(mu_);
  auto plan = PlanQuery(query, stats_, catalog_, opts, &feedback_);
  if (!plan.ok()) return plan.status();
  auto engine = EngineLocked(plan.value().chosen_engine);
  if (!engine.ok()) return engine.status();
  return RoutedEngine{engine.value(), std::make_shared<const PlanInfo>(
                                          std::move(plan).value())};
}

std::optional<TopKResult> RankCubeDb::TryReuseLocked(
    const TopKQuery& query, const CanonicalQuery& key,
    const std::string& epoch_tag, const CachedResult& entry,
    ExecContext& ctx) {
  if (entry.expr == nullptr) return std::nullopt;
  ScoreExprPtr g = query.function->Expr();  // non-null: key.cacheable
  const Box domain = Box::Unit(table_.schema().num_rank_dims);

  // Certification budget: every matching row NOT in the candidate set has
  // f >= exclusion_bound, so under g it scores >= exclusion_bound - delta
  // where delta bounds |g - f| over the normalized ranking domain. A
  // complete entry (all matching rows listed) needs no delta — re-ranking
  // it IS brute force over the filter set — but only if f is finite on the
  // domain (a gated f silently dropped its out-of-band rows, which g might
  // admit).
  double delta = 0.0;
  if (entry.complete) {
    if (!std::isfinite(entry.expr->Range(domain).hi)) return std::nullopt;
  } else {
    delta = MaxAbsDiff(*g, *entry.expr, domain);
    if (!std::isfinite(delta)) return std::nullopt;
    // Pre-certify on the cached f-scores alone, before paying any candidate
    // I/O: each candidate's g is within delta of its f, so the k-th best g
    // over the candidates is at most F_k + delta, and every non-candidate
    // scores >= exclusion_bound - delta under g. F_k + 2*delta <
    // exclusion_bound therefore already proves the re-ranked top-k exact —
    // and when it fails, the post-rescore check below almost certainly
    // would too, so bailing here keeps a failed reuse attempt free.
    if (entry.tuples.size() < static_cast<size_t>(query.k)) {
      return std::nullopt;
    }
    double f_k = entry.tuples[static_cast<size_t>(query.k) - 1].score;
    if (!(f_k + 2.0 * delta < entry.exclusion_bound)) return std::nullopt;
  }

  Stopwatch timer;
  const size_t n = entry.tuples.size();
  std::vector<Tid> tids(n);
  for (size_t i = 0; i < n; ++i) tids[i] = entry.tuples[i].tid;
  std::vector<double> scores(n);
  kernels::BlockEvaluator(table_, *query.function)
      .Score(tids.data(), n, scores.data());
  TopKHeap heap(query.k);
  for (size_t i = 0; i < n; ++i) {
    // Cost honesty: re-ranking touches each candidate row, so it pays the
    // same per-row page charge the scan paths do.
    table_.ChargeRowFetch(ctx.io, tids[i]);
    heap.Offer(tids[i], scores[i]);
  }
  if (!entry.complete) {
    // Exactness requires k results strictly better than anything the
    // candidate set could be missing.
    if (!heap.Full()) return std::nullopt;
    if (!(heap.KthScore() < entry.exclusion_bound - delta)) {
      return std::nullopt;
    }
  }

  TopKResult out;
  out.tuples = heap.Sorted();
  out.stats.tuples_evaluated = n;
  out.stats.pages_read = ctx.io->TotalPhysical();
  out.stats.time_ms = timer.ElapsedMs();
  out.plan = entry.plan;

  // The certified answer is a valid cache entry under the NEW function:
  // dropped candidates score >= G_k and (non-complete case) non-candidates
  // score >= exclusion_bound - delta > G_k, so G_k is a sound exclusion
  // bound for the k tuples listed.
  CachedResult fresh;
  fresh.tuples = out.tuples;
  fresh.complete = !heap.Full();
  fresh.exclusion_bound = heap.Full() ? heap.KthScore() : kInfScore;
  fresh.expr = g;
  fresh.plan = entry.plan;
  cache_.Insert(key, epoch_tag, std::move(fresh));
  return out;
}

Result<TopKResult> RankCubeDb::ExecuteQueryLocked(const TopKQuery& query,
                                                  const QueryOptions& opts,
                                                  ExecContext& ctx) {
  // Budget- or deadline-constrained queries still take exact hits (they
  // cost ~0 pages) but never overfetch or re-rank — the cached path must
  // not charge pages the uncached path wouldn't.
  const bool unconstrained = ctx.page_budget == 0 && !ctx.has_deadline();
  CanonicalQuery key;
  std::string epoch_tag;
  bool cacheable = false;
  if (cache_.enabled() && opts.force_engine.empty()) {
    // Validate before serving from cache so a malformed query fails
    // identically hot or cold.
    RC_RETURN_IF_ERROR(ValidateQuery(query, table_.schema()));
    key = CanonicalizeQuery(query);
    if (key.cacheable) {
      cacheable = true;
      epoch_tag = std::to_string(table_.epoch());
      if (std::optional<CachedResult> hit = cache_.Lookup(key, epoch_tag)) {
        TopKResult out;
        size_t n = std::min(hit->tuples.size(), static_cast<size_t>(query.k));
        out.tuples.assign(hit->tuples.begin(), hit->tuples.begin() + n);
        out.plan = hit->plan;
        return out;
      }
      if (unconstrained) {
        // One sibling key can hold several distinct functions; try each
        // candidate set until one certifies. Failed attempts cost only a
        // delta-bound tree walk (the pre-certification bails before I/O).
        for (const CachedResult& sibling :
             cache_.FindSiblings(key, epoch_tag)) {
          if (std::optional<TopKResult> reused =
                  TryReuseLocked(query, key, epoch_tag, sibling, ctx)) {
            cache_.RecordReuseHit();
            return std::move(*reused);
          }
        }
      }
    }
  }

  // Full execution. A cacheable miss overfetches (k' = overfetch * k) so
  // the cached prefix doubles as the reuse candidate set; the caller is
  // still served exactly k. Overfetch is adaptive: only families the cache
  // has seen before pay the deeper execution — a one-off query would buy a
  // candidate set nobody ever re-ranks.
  TopKQuery exec_query = query;
  if (cacheable && unconstrained && cache_.overfetch() > 1.0 &&
      cache_.FamilySeen(key)) {
    exec_query.k = std::max(
        query.k, static_cast<int>(cache_.overfetch() *
                                  static_cast<double>(query.k)));
  }
  auto routed = Route(exec_query, opts);
  if (!routed.ok()) return routed.status();
  Result<TopKResult> result = routed.value().engine->Execute(exec_query, ctx);
  if (!result.ok()) return result;
  result.value().plan = routed.value().plan;

  // True-cost feedback: the plan's (already corrected) page estimate
  // against this query's measured physical reads.
  if (feedback_.enabled() && routed.value().plan != nullptr) {
    feedback_.Observe(routed.value().plan->chosen_engine,
                      routed.value().plan->estimated_pages,
                      static_cast<double>(ctx.io->TotalPhysical()));
  }

  if (cacheable) {
    cache_.RecordMiss();
    TopKResult& full = result.value();
    CachedResult entry;
    entry.tuples = full.tuples;
    // The heap never filled => every matching (finite-score) row is listed.
    entry.complete = static_cast<int>(full.tuples.size()) < exec_query.k;
    entry.exclusion_bound =
        entry.complete ? kInfScore : full.tuples.back().score;
    entry.expr = query.function->Expr();
    entry.plan = full.plan;
    cache_.Insert(key, epoch_tag, std::move(entry));
    if (full.tuples.size() > static_cast<size_t>(query.k)) {
      full.tuples.resize(static_cast<size_t>(query.k));
    }
  }
  return result;
}

Result<TopKResult> RankCubeDb::Query(const TopKQuery& query,
                                     const QueryOptions& opts) {
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  IoSession io(&store_);
  ExecContext ctx;
  ctx.io = &io;
  ctx.page_budget = opts.page_budget;
  if (opts.deadline_ms > 0) {
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(opts.deadline_ms);
  }
  Result<TopKResult> result = ExecuteQueryLocked(query, opts, ctx);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++traffic_.queries_executed;
    if (!result.ok()) ++traffic_.query_failures;
    traffic_.pages_logical += io.TotalLogical();
    traffic_.pages_charged += io.TotalPhysical();
    traffic_.pages_device += io.TotalDevice();
  }
  return result;
}

Result<PlanInfo> RankCubeDb::Explain(const TopKQuery& query,
                                     const QueryOptions& opts) const {
  RC_RETURN_IF_ERROR(ValidateQuery(query, table_.schema()));
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  return PlanQuery(query, stats_, catalog_, opts, &feedback_);
}

std::vector<AccessStructureInfo> RankCubeDb::CatalogEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.entries();
}

std::vector<std::string> RankCubeDb::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.Keys();
}

std::map<std::string, FreshnessInfo> RankCubeDb::FreshnessByEngine() const {
  // Freshness reads the table's delta store, so exclude writers too.
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, FreshnessInfo> out;
  for (const auto& [name, engine] : engines_) {
    out.emplace(name, engine->Freshness());
  }
  return out;
}

DbStats RankCubeDb::Stats() const {
  // Writers are excluded for the whole snapshot, so relation counters,
  // delta drift and per-engine freshness describe one instant.
  std::shared_lock<std::shared_mutex> read(ddl_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  DbStats s;
  s.rows = table_.num_rows();
  s.live_rows = table_.num_live();
  s.epoch = table_.epoch();
  const DeltaStore& delta = table_.delta();
  s.compacted_epoch = delta.compacted_epoch();
  s.pending_inserts = delta.InsertsSince(delta.compacted_epoch());
  s.pending_deletes = delta.DeletesSince(delta.compacted_epoch());
  s.engines_cataloged = catalog_.Keys().size();
  s.engines_built = engines_.size();
  for (const auto& [name, engine] : engines_) {
    s.freshness.emplace(name, engine->Freshness());
  }
  s.construction_pages = build_io_.TotalPhysical();
  s.queries_executed = traffic_.queries_executed;
  s.query_failures = traffic_.query_failures;
  s.pages_logical = traffic_.pages_logical;
  s.pages_charged = traffic_.pages_charged;
  s.pages_device = traffic_.pages_device;
  s.cache_hit_rate =
      s.pages_logical > 0
          ? 1.0 - static_cast<double>(s.pages_device) /
                      static_cast<double>(s.pages_logical)
          : 0.0;
  s.cache = cache_.Stats();
  s.durable = durability_ != nullptr;
  if (durability_ != nullptr) {
    s.read_only = read_only_;
    s.degraded_reason = recovery_.degraded_reason;
    s.checkpoint_epoch = durability_->checkpoint_epoch();
    s.checkpoint_generation = durability_->checkpoint_generation();
    s.wal_records = durability_->wal_records();
    s.wal_bytes = durability_->wal_bytes();
    s.backing_reads = store_.backing_reads();
    s.backing_corruptions = store_.backing_corruptions();
    s.recovered_records = recovery_.replayed;
    s.recovery_ms = recovery_.recovery_ms;
  }
  return s;
}

uint64_t RankCubeDb::construction_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return build_io_.TotalPhysical();
}

}  // namespace rankcube
