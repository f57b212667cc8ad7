// Cost-based plan selection: which physical access structure answers a
// given logical top-k query.
//
// PlanQuery enumerates every catalog entry as a candidate, runs the
// capability checks and the block-access cost model (cost_model.h) on each,
// and picks the cheapest feasible candidate under the requested objective.
// The full candidate table travels back in the PlanInfo — both for
// db.Explain() and for comparing estimated against measured pages.
//
// Planning never touches an engine or charges a page: it reads only
// TableStats and AccessStructureInfo, so RankCubeDb can plan (and Explain)
// queries against structures that have not been built yet.
#ifndef RANKCUBE_PLANNER_PLANNER_H_
#define RANKCUBE_PLANNER_PLANNER_H_

#include <string>

#include "cache/feedback.h"
#include "engine/structure_info.h"
#include "planner/catalog.h"
#include "planner/cost_model.h"

namespace rankcube {

/// Per-query planner hints + execution knobs, the facade-level analogue of
/// ExecContext (RankCubeDb copies these into the context it builds).
struct QueryOptions {
  /// Bypass the cost model and run this registry key. The key must exist
  /// in the db's catalog; capability checks are skipped (a forced engine
  /// may still reject the query at execution, with its own Status).
  std::string force_engine;

  /// Objective the cost model minimizes: physical pages, or pages weighted
  /// by device cost plus the CPU evaluation term.
  OptimizeFor optimize_for = OptimizeFor::kPages;

  /// Physical-page budget per query (0 = unlimited), enforced by
  /// RankingEngine::Execute exactly as in a direct ExecContext.
  uint64_t page_budget = 0;

  /// Wall-clock deadline per query in milliseconds, measured from dispatch
  /// (0 = none). Enforced next to the page budget with the distinct
  /// Status::DeadlineExceeded, so admission layers can tell "too slow"
  /// from "too expensive".
  uint64_t deadline_ms = 0;
};

/// Picks the engine for `query` from `catalog`. Returns NotFound with the
/// per-candidate reasons when no structure can answer the query, and
/// NotFound listing the catalog keys when opts.force_engine names an
/// unknown engine. When `feedback` is non-null, each candidate's page
/// estimate is multiplied by the learned per-family correction before
/// costing, so measured I/O steers both the choice and the reported
/// estimated_pages.
Result<PlanInfo> PlanQuery(const TopKQuery& query, const TableStats& stats,
                           const Catalog& catalog, const QueryOptions& opts,
                           const CostFeedback* feedback = nullptr);

}  // namespace rankcube

#endif  // RANKCUBE_PLANNER_PLANNER_H_
