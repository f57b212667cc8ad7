// The planner's knowledge base: table-level statistics plus one
// AccessStructureInfo per physical access structure.
//
// TableStats is computed once per relation (a single in-memory pass) and
// gives the cost model the quantities the paper's block-access analysis is
// parameterized on: heap-page geometry and exact per-dimension value
// frequencies, i.e. the selectivity of any equality predicate. Catalog
// entries start as analytic predictions (cost_model.h) so queries can be
// planned before any structure is built, and are replaced by the exact
// RankingEngine::Describe() output once a structure exists.
#ifndef RANKCUBE_PLANNER_CATALOG_H_
#define RANKCUBE_PLANNER_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/structure_info.h"
#include "func/query.h"
#include "storage/table.h"

namespace rankcube {

/// Relation-level statistics for cost estimation. Exact, not sampled: the
/// value-frequency histograms are one pass over the in-memory selection
/// columns (the same concession every structure's build already gets), and
/// RankCubeDb keeps them exact under writes (Insert/Delete adjust the
/// touched counters; Compact recomputes everything).
struct TableStats {
  uint64_t num_rows = 0;  ///< live rows (tombstones excluded)
  int num_sel_dims = 0;
  int num_rank_dims = 0;
  size_t page_size = 4096;
  size_t row_bytes = 0;
  size_t rows_per_page = 0;
  /// Heap pages of a full sequential scan. Includes tombstoned rows: the
  /// heap keeps them, so a scan still reads them.
  uint64_t table_pages = 0;

  // --- delta state (drives the planner's staleness pricing) --------------
  uint64_t epoch = 0;  ///< table epoch at this snapshot
  /// The table's live mutation log, for pricing staleness *per structure*
  /// (a structure built or maintained mid-log owes only the suffix after
  /// its own built_epoch). Set by Compute; not owned; valid while the
  /// source Table is alive and unmoved — RankCubeDb owns both and
  /// recomputes stats on compaction.
  const DeltaStore* delta = nullptr;

  /// value_counts[dim][value] = number of live rows with sel(dim) == value.
  std::vector<std::vector<uint64_t>> value_counts;

  static TableStats Compute(const Table& table, size_t page_size);

  /// Fraction of live rows satisfying `p` (exact, from the histogram).
  double PredicateSelectivity(const Predicate& p) const;

  /// Fraction of rows satisfying the conjunction, under the independence
  /// assumption (per-predicate factors are exact, their product is not).
  double Selectivity(const std::vector<Predicate>& predicates) const;

  /// Exact incremental adjustments for one mutation (RankCubeDb's write
  /// path; the heap geometry is re-derived from the table).
  void ApplyInsert(const Table& table, Tid tid);
  void ApplyDelete(const Table& table, Tid tid);
};

/// Keyed set of AccessStructureInfo entries (a handful of engines; linear
/// lookup). Put() replaces an existing entry with the same engine key —
/// how predictions get upgraded to exact post-build descriptions.
class Catalog {
 public:
  void Put(AccessStructureInfo info);

  /// Entry for `engine`, or nullptr. The pointer is invalidated by Put().
  const AccessStructureInfo* Find(const std::string& engine) const;

  /// Cataloged engine keys, sorted — the enumeration the planner's error
  /// paths and RankCubeDb::Keys() report.
  std::vector<std::string> Keys() const;

  const std::vector<AccessStructureInfo>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  std::vector<AccessStructureInfo> entries_;
};

}  // namespace rankcube

#endif  // RANKCUBE_PLANNER_CATALOG_H_
