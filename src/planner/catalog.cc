#include "planner/catalog.h"

#include <algorithm>
#include <utility>

namespace rankcube {

TableStats TableStats::Compute(const Table& table, size_t page_size) {
  TableStats ts;
  ts.num_rows = table.num_live();
  ts.num_sel_dims = table.num_sel_dims();
  ts.num_rank_dims = table.num_rank_dims();
  ts.page_size = page_size;
  ts.row_bytes = table.RowBytes();
  ts.rows_per_page = table.RowsPerPage(page_size);
  ts.table_pages = table.NumPages(page_size);

  ts.epoch = table.epoch();
  ts.delta = &table.delta();

  ts.value_counts.resize(ts.num_sel_dims);
  for (int d = 0; d < ts.num_sel_dims; ++d) {
    ts.value_counts[d].assign(table.schema().sel_cardinality[d], 0);
    for (Tid t = 0; t < static_cast<Tid>(table.num_rows()); ++t) {
      if (!table.is_live(t)) continue;
      ++ts.value_counts[d][table.sel(t, d)];
    }
  }
  return ts;
}

void TableStats::ApplyInsert(const Table& table, Tid tid) {
  ++num_rows;
  for (int d = 0; d < num_sel_dims; ++d) ++value_counts[d][table.sel(tid, d)];
  table_pages = table.NumPages(page_size);
  epoch = table.epoch();
}

void TableStats::ApplyDelete(const Table& table, Tid tid) {
  --num_rows;
  for (int d = 0; d < num_sel_dims; ++d) --value_counts[d][table.sel(tid, d)];
  epoch = table.epoch();
}

double TableStats::PredicateSelectivity(const Predicate& p) const {
  if (num_rows == 0) return 0.0;
  if (p.dim < 0 || p.dim >= num_sel_dims) return 0.0;
  const auto& counts = value_counts[p.dim];
  if (p.value < 0 || static_cast<size_t>(p.value) >= counts.size()) return 0.0;
  return static_cast<double>(counts[p.value]) /
         static_cast<double>(num_rows);
}

double TableStats::Selectivity(
    const std::vector<Predicate>& predicates) const {
  double sel = 1.0;
  for (const auto& p : predicates) sel *= PredicateSelectivity(p);
  return sel;
}

void Catalog::Put(AccessStructureInfo info) {
  for (auto& entry : entries_) {
    if (entry.engine == info.engine) {
      entry = std::move(info);
      return;
    }
  }
  entries_.push_back(std::move(info));
}

const AccessStructureInfo* Catalog::Find(const std::string& engine) const {
  for (const auto& entry : entries_) {
    if (entry.engine == engine) return &entry;
  }
  return nullptr;
}

std::vector<std::string> Catalog::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& entry : entries_) keys.push_back(entry.engine);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace rankcube
