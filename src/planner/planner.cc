#include "planner/planner.h"

#include <algorithm>

namespace rankcube {

namespace {

/// One costed candidate row under the requested objective (shared by the
/// forced and cost-based paths so their cost fields stay in the same
/// units).
PlanCandidate MakeCandidate(const std::string& engine, const CostEstimate& est,
                            const QueryOptions& opts) {
  // kLatency: device cost per physical page and CPU cost per exact tuple
  // evaluation, in us. The page cost is the disk-weighted 0.1 ms a page.
  constexpr double kPageCostUs = 100.0;
  constexpr double kTupleCostUs = 0.05;
  PlanCandidate cand;
  cand.engine = engine;
  cand.feasible = est.feasible;
  cand.est_pages = est.pages;
  cand.reason = est.reason;
  cand.est_cost = opts.optimize_for == OptimizeFor::kPages
                      ? est.pages
                      : est.pages * kPageCostUs + est.tuples * kTupleCostUs;
  return cand;
}

}  // namespace

Result<PlanInfo> PlanQuery(const TopKQuery& query, const TableStats& stats,
                           const Catalog& catalog, const QueryOptions& opts,
                           const CostFeedback* feedback) {
  if (catalog.size() == 0) {
    return Status::NotFound("planner catalog is empty");
  }

  // Learned per-family correction, applied to the analytic page estimate
  // before costing so the objective (and the reported estimated_pages)
  // reflect measured I/O, not just the model.
  auto correct = [feedback](const std::string& engine, CostEstimate est) {
    if (feedback != nullptr && est.feasible) {
      est.pages *= feedback->Correction(engine);
    }
    return est;
  };

  if (!opts.force_engine.empty()) {
    const AccessStructureInfo* info = catalog.Find(opts.force_engine);
    if (info == nullptr) {
      std::string keys;
      for (const std::string& key : catalog.Keys()) {
        if (!keys.empty()) keys += ", ";
        keys += key;
      }
      return Status::NotFound("force_engine '" + opts.force_engine +
                              "' is not in the catalog; cataloged engines: " +
                              keys);
    }
    PlanInfo plan;
    plan.forced = true;
    plan.chosen_engine = opts.force_engine;
    CostEstimate est =
        correct(info->engine, EstimateCost(*info, query, stats));
    plan.estimated_pages = est.feasible ? est.pages : 0.0;
    plan.candidates.push_back(MakeCandidate(info->engine, est, opts));
    return plan;
  }

  PlanInfo plan;
  for (const auto& info : catalog.entries()) {
    plan.candidates.push_back(MakeCandidate(
        info.engine, correct(info.engine, EstimateCost(info, query, stats)),
        opts));
  }

  // Feasible candidates first, each group by ascending objective; ties
  // break on the engine key so plans are deterministic across runs.
  std::sort(plan.candidates.begin(), plan.candidates.end(),
            [](const PlanCandidate& a, const PlanCandidate& b) {
              if (a.feasible != b.feasible) return a.feasible;
              if (a.est_cost != b.est_cost) return a.est_cost < b.est_cost;
              return a.engine < b.engine;
            });

  if (plan.candidates.empty() || !plan.candidates.front().feasible) {
    std::string reasons;
    for (const auto& c : plan.candidates) {
      reasons += "\n  " + c.engine + ": " + c.reason;
    }
    return Status::NotFound("no access structure can answer " +
                            query.ToString() + reasons);
  }
  plan.chosen_engine = plan.candidates.front().engine;
  plan.estimated_pages = plan.candidates.front().est_pages;
  return plan;
}

}  // namespace rankcube
