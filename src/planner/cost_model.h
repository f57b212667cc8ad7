// Block-access cost model for the built-in access structures, following the
// paper's analysis: an execution's cost is the number of disk-block reads
// it performs, estimated per structure from the catalog statistics.
//
//  * table_scan      exact: the relation's heap pages.
//  * grid/fragments  §3.3/§3.5 neighborhood search: blocks visited until k
//                    matches accumulate (k / (P * sel), with an expansion
//                    overshoot), each paying its base-block pages plus the
//                    covering cuboids' pseudo-block pages.
//  * boolean_first   near-exact: min(scan, posting pages + one random heap
//                    access per posting entry) — the histogram gives the
//                    exact posting length.
//  * ranking_first   R-tree branch-and-bound: leaves supplying the popped
//                    candidates plus one verification row-fetch per
//                    candidate (candidates ~ k / sel under predicates).
//  * signature       branch-and-bound restricted to match-bearing subtrees
//                    (§4.3), plus partial-signature loads per tested node.
//  * index_merge     Ch5 progressive merge: per-tree descent plus the leaf
//                    frontier required to pass the k-th threshold.
//
// PredictStructureInfo produces a catalog entry for a structure that has
// not been built yet, by running the build-geometry formulas (§3.2.3 grid
// sizing, §4.2.2 R-tree fanout) on TableStats — so the planner can cost all
// alternatives without paying any construction.
#ifndef RANKCUBE_PLANNER_COST_MODEL_H_
#define RANKCUBE_PLANNER_COST_MODEL_H_

#include <string>

#include "engine/registry.h"
#include "engine/structure_info.h"
#include "planner/catalog.h"

namespace rankcube {

/// One candidate's estimate. `pages` and `tuples` are meaningful only when
/// `feasible`; `reason` explains infeasibility otherwise.
struct CostEstimate {
  bool feasible = false;
  double pages = 0.0;   ///< estimated physical page reads
  double tuples = 0.0;  ///< estimated exact score evaluations (CPU term)
  std::string reason;
};

/// Estimates the cost of answering `query` with the structure described by
/// `info`, including the capability checks (predicate support, convexity,
/// cuboid coverage). Works on predicted and built entries alike.
CostEstimate EstimateCost(const AccessStructureInfo& info,
                          const TopKQuery& query, const TableStats& stats);

/// Predicted AccessStructureInfo for a not-yet-built structure under
/// `build` options. Unknown engine keys (externally registered backends)
/// get a generic entry with no cost model — plannable only via
/// force_engine.
AccessStructureInfo PredictStructureInfo(const std::string& engine,
                                         const TableStats& stats,
                                         const EngineBuildOptions& build);

}  // namespace rankcube

#endif  // RANKCUBE_PLANNER_COST_MODEL_H_
