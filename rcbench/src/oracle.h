// The benchmark's own answer checker. It keeps a mirror of every row a
// workload loaded or wrote, stamped with the version (count of mutations
// so far) at which each row and each partition appeared and vanished, so an
// answer can be checked against exactly the state its query saw, even after
// later writes. It reads only the mirror and the query's ranking function;
// no engine, index or cache of the library is involved.
#ifndef RCBENCH_ORACLE_H_
#define RCBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "func/query.h"

namespace rcbench {

class Mirror {
 public:
  static constexpr uint64_t kNever = UINT64_MAX;
  static constexpr size_t kNoPartition = SIZE_MAX;

  Mirror(int sel_dims, int rank_dims) : s_(sel_dims), r_(rank_dims) {}

  /// Registers a partition that exists from `version` on; an
  /// unpartitioned database is a single partition.
  size_t AddPartition(const std::string& name, uint64_t version);
  void DropPartition(size_t part, uint64_t version);
  /// The newest partition called `name`, or kNoPartition.
  size_t Find(const std::string& name) const;
  const std::string& name(size_t part) const { return parts_[part].name; }
  size_t num_partitions() const { return parts_.size(); }

  /// Appends a row to `part`, visible from `version` on; returns its tid
  /// (dense per partition, like the library's).
  uint32_t AddRow(size_t part, const int32_t* sel, const double* rank,
                  uint64_t version);
  /// The row is gone from `version` on.
  void KillRow(size_t part, uint32_t tid, uint64_t version);
  /// Frees the rows of a dropped partition once no check will ask about a
  /// version it was alive at; it then reads as empty.
  void ForgetRows(size_t part);

  size_t rows(size_t part) const { return parts_[part].row_born.size(); }
  bool PartitionAlive(size_t part, uint64_t version) const;
  bool Alive(size_t part, uint32_t tid, uint64_t version) const;
  size_t LiveRows(size_t part, uint64_t version) const;
  const int32_t* sel(size_t part, uint32_t tid) const {
    return &parts_[part].sel[static_cast<size_t>(tid) * s_];
  }
  const double* rank(size_t part, uint32_t tid) const {
    return &parts_[part].rank[static_cast<size_t>(tid) * r_];
  }

 private:
  struct Part {
    std::string name;
    uint64_t born = 0;
    uint64_t died = kNever;
    std::vector<int32_t> sel;  ///< row-major, s_ per row
    std::vector<double> rank;  ///< row-major, r_ per row
    std::vector<uint64_t> row_born;
    std::vector<uint64_t> row_died;
  };

  int s_;
  int r_;
  std::vector<Part> parts_;
};

/// One tuple of an answer as the checker sees it.
struct AnswerTuple {
  size_t part = 0;
  uint32_t tid = 0;
  double score = 0.0;
};

enum class Verdict {
  kOk,
  /// Correct except for trailing +inf-scored tuples: the padding fault of
  /// gated ranking functions (rows a gate excludes must never rank).
  kPadded,
  kWrong,
};

struct CheckResult {
  Verdict verdict = Verdict::kOk;
  std::string why;  ///< set unless kOk
};

/// The cheap checks every answer gets, against the state at `version`: at
/// most k tuples; scores ascending and finite (trailing +inf tuples make
/// the verdict kPadded); every tuple live and matching the predicates; each
/// score within 1e-9 relative of the score recomputed from the mirror; no
/// tuple twice.
CheckResult CheckAnswer(const Mirror& mirror, const rankcube::TopKQuery& query,
                        const std::vector<AnswerTuple>& answer,
                        uint64_t version);

/// Exact top-k score list at `version` by evaluating every live matching
/// row; rows a gate excludes (score +inf) never rank.
std::vector<double> BruteForceScores(const Mirror& mirror,
                                     const rankcube::TopKQuery& query,
                                     uint64_t version);

/// CheckAnswer plus equality of the answer's finite score list with
/// `expected` (a BruteForceScores list).
CheckResult CheckFull(const Mirror& mirror, const rankcube::TopKQuery& query,
                      const std::vector<AnswerTuple>& answer, uint64_t version,
                      const std::vector<double>& expected);

}  // namespace rcbench

#endif  // RCBENCH_ORACLE_H_
