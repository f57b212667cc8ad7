#include "engine/engine.h"

#include "common/stopwatch.h"
#include "func/kernels/kernels.h"

namespace rankcube {

AccessStructureInfo RankingEngine::Describe() const {
  AccessStructureInfo info;
  info.engine = name_;
  info.supports_predicates = SupportsPredicates();
  info.size_bytes = SizeBytes();
  info.built = true;
  info.built_epoch = BuiltEpoch();
  return info;
}

FreshnessInfo RankingEngine::Freshness() const {
  const DeltaStore& delta = table_->delta();
  FreshnessInfo f;
  f.built_epoch = BuiltEpoch();
  f.table_epoch = delta.epoch();
  if (f.built_epoch < f.table_epoch) {
    f.pending_inserts = delta.InsertsSince(f.built_epoch);
    f.pending_deletes = delta.DeletesSince(f.built_epoch);
  }
  return f;
}

Status RankingEngine::Maintain(IoSession* io) {
  (void)io;
  return Status::NotSupported("engine '" + name_ +
                              "' has no incremental maintenance; rebuild at "
                              "compaction");
}

Result<TopKResult> RankingEngine::ExecuteWithOverlay(const TopKQuery& query,
                                                     ExecContext& ctx) const {
  const DeltaStore& delta = table_->delta();
  std::vector<Tid> inserted, deleted;
  delta.ChangesSince(BuiltEpoch(), &inserted, &deleted);

  // The structure answers over its own epoch's content. Of its top-(k + D)
  // at most D tuples can be tombstoned, so the surviving top-k is exactly
  // the live top-k of the structure's epoch. D counts only deletes of rows
  // the structure may hold: a row born and deleted inside the suffix (tid
  // at or past the first appended tid) never reached it, and must not
  // deepen the search.
  size_t ephemeral = 0;
  if (!inserted.empty()) {
    for (Tid t : deleted) ephemeral += t >= inserted.front() ? 1 : 0;
  }
  TopKQuery inner = query;
  inner.k = query.k + static_cast<int>(deleted.size() - ephemeral);
  Result<TopKResult> result = ExecuteImpl(inner, ctx);
  if (!result.ok()) return result;

  Stopwatch watch;
  uint64_t pages_before = ctx.io->TotalPhysical();
  TopKHeap topk(query.k);
  for (const ScoredTuple& st : result.value().tuples) {
    if (table_->is_live(st.tid)) topk.Offer(st.tid, st.score);
  }

  // Exact delta scan: the appended rows form the heap tail, read
  // sequentially (charged), filtered by predicates + liveness, and scored
  // through the same fused path every engine uses.
  if (!inserted.empty()) {
    table_->ChargeTailScan(ctx.io, inserted.front());
    kernels::FusedScorer scorer(*table_, *query.function, query.predicates,
                                &topk, &result.value().stats);
    for (Tid t : inserted) {
      if (table_->is_live(t)) scorer.Add(t);
    }
    scorer.Flush();
  }

  result.value().tuples = topk.Sorted();
  result.value().stats.pages_read += ctx.io->TotalPhysical() - pages_before;
  result.value().stats.time_ms += watch.ElapsedMs();
  return result;
}

Result<TopKResult> RankingEngine::Execute(const TopKQuery& query,
                                          ExecContext& ctx) const {
  if (ctx.io == nullptr) {
    return Status::InvalidArgument("ExecContext has no I/O session");
  }
  RC_RETURN_IF_ERROR(ValidateQuery(query, table_->schema()));
  if (!SupportsPredicates() && !query.predicates.empty()) {
    return Status::NotSupported("engine '" + name_ +
                                "' does not evaluate boolean predicates");
  }
  if (ctx.deadline_passed()) {
    // Rejected before any page is read: a queued query whose deadline
    // lapsed must not consume I/O it can no longer answer in time.
    return Status::DeadlineExceeded("engine '" + name_ +
                                    "' not started: deadline already passed");
  }

  uint64_t before = ctx.io->TotalPhysical();
  Result<TopKResult> result = BuiltEpoch() >= table_->epoch()
                                  ? ExecuteImpl(query, ctx)
                                  : ExecuteWithOverlay(query, ctx);
  uint64_t physical = ctx.io->TotalPhysical() - before;

  if (!result.ok()) {
    // The engine's own failure outranks a budget overrun: an admission
    // layer must not retry-with-larger-budget a query that cannot succeed.
    return result;
  }
  if (ctx.deadline_passed()) {
    // Checked before the budget: a query that overran both is reported as
    // too slow — the verdict the caller observed first.
    return Status::DeadlineExceeded("engine '" + name_ +
                                    "' finished past the deadline (read " +
                                    std::to_string(physical) + " pages)");
  }
  if (ctx.page_budget > 0 && physical > ctx.page_budget) {
    return Status::OutOfRange("engine '" + name_ + "' read " +
                              std::to_string(physical) +
                              " pages, budget was " +
                              std::to_string(ctx.page_budget));
  }
  return result;
}

}  // namespace rankcube
