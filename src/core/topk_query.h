// Shared query-execution statistics and top-k result bookkeeping.
#ifndef RANKCUBE_CORE_TOPK_QUERY_H_
#define RANKCUBE_CORE_TOPK_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "func/query.h"  // ScoredTuple, TopKHeap, BruteForceTopK
#include "storage/table.h"
#include "storage/io_session.h"

namespace rankcube {

/// Counters every engine in the repository reports; the benchmark harnesses
/// print these as the paper's series (time, #disk accesses, #states, peak
/// heap size).
struct ExecStats {
  double time_ms = 0.0;
  uint64_t pages_read = 0;        ///< physical page accesses during the query
  uint64_t tuples_evaluated = 0;  ///< exact scores computed
  uint64_t states_generated = 0;  ///< Ch5: joint states created
  uint64_t states_examined = 0;   ///< Ch5: joint states popped
  uint64_t peak_heap = 0;         ///< max candidate-heap entries
  uint64_t signature_pages = 0;   ///< signature/join-signature accesses
  double signature_ms = 0.0;      ///< time spent loading signatures (Fig 7.12)

  void MergeMax(uint64_t heap_size) {
    peak_heap = std::max(peak_heap, heap_size);
  }

  /// Accumulates another query's counters. Every field adds, including
  /// peak_heap: across a workload the sum divided by the query count is the
  /// average peak (the series the benchmarks report); within one query use
  /// MergeMax. The partition merge and the bench harness aggregate
  /// through this.
  ExecStats& operator+=(const ExecStats& o) {
    time_ms += o.time_ms;
    pages_read += o.pages_read;
    tuples_evaluated += o.tuples_evaluated;
    states_generated += o.states_generated;
    states_examined += o.states_examined;
    peak_heap += o.peak_heap;
    signature_pages += o.signature_pages;
    signature_ms += o.signature_ms;
    return *this;
  }
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_TOPK_QUERY_H_
