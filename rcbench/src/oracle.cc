#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace rcbench {

using rankcube::TopKQuery;

size_t Mirror::AddPartition(const std::string& name, uint64_t version) {
  Part p;
  p.name = name;
  p.born = version;
  parts_.push_back(std::move(p));
  return parts_.size() - 1;
}

void Mirror::DropPartition(size_t part, uint64_t version) {
  parts_[part].died = version;
}

size_t Mirror::Find(const std::string& name) const {
  for (size_t i = parts_.size(); i-- > 0;) {
    if (parts_[i].name == name) return i;
  }
  return kNoPartition;
}

uint32_t Mirror::AddRow(size_t part, const int32_t* sel, const double* rank,
                        uint64_t version) {
  Part& p = parts_[part];
  p.sel.insert(p.sel.end(), sel, sel + s_);
  p.rank.insert(p.rank.end(), rank, rank + r_);
  p.row_born.push_back(version);
  p.row_died.push_back(kNever);
  return static_cast<uint32_t>(p.row_born.size() - 1);
}

void Mirror::KillRow(size_t part, uint32_t tid, uint64_t version) {
  parts_[part].row_died[tid] = version;
}

void Mirror::ForgetRows(size_t part) {
  Part& p = parts_[part];
  std::vector<int32_t>().swap(p.sel);
  std::vector<double>().swap(p.rank);
  std::vector<uint64_t>().swap(p.row_born);
  std::vector<uint64_t>().swap(p.row_died);
}

bool Mirror::PartitionAlive(size_t part, uint64_t version) const {
  return parts_[part].born <= version && version < parts_[part].died;
}

bool Mirror::Alive(size_t part, uint32_t tid, uint64_t version) const {
  const Part& p = parts_[part];
  return PartitionAlive(part, version) && tid < p.row_born.size() &&
         p.row_born[tid] <= version && version < p.row_died[tid];
}

size_t Mirror::LiveRows(size_t part, uint64_t version) const {
  size_t n = 0;
  for (uint32_t t = 0; t < rows(part); ++t) n += Alive(part, t, version);
  return n;
}

namespace {

/// Equal within 1e-9 relative; an infinite score only equals itself.
bool Close(double a, double b) {
  if (a == b) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

bool Matches(const Mirror& mirror, const TopKQuery& query, size_t part,
             uint32_t tid) {
  const int32_t* sel = mirror.sel(part, tid);
  for (const rankcube::Predicate& p : query.predicates) {
    if (sel[p.dim] != p.value) return false;
  }
  return true;
}

std::string Where(size_t i, const AnswerTuple& t) {
  return "tuple " + std::to_string(i) + " (partition " +
         std::to_string(t.part) + ", tid " + std::to_string(t.tid) + ")";
}

}  // namespace

CheckResult CheckAnswer(const Mirror& mirror, const TopKQuery& query,
                        const std::vector<AnswerTuple>& answer,
                        uint64_t version) {
  auto wrong = [](std::string why) {
    return CheckResult{Verdict::kWrong, std::move(why)};
  };
  if (answer.size() > static_cast<size_t>(query.k)) {
    return wrong(std::to_string(answer.size()) + " tuples for k=" +
                 std::to_string(query.k));
  }
  size_t padded = 0;
  std::set<std::pair<size_t, uint32_t>> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const AnswerTuple& t = answer[i];
    if (t.part >= mirror.num_partitions() || !mirror.Alive(t.part, t.tid, version)) {
      return wrong(Where(i, t) + " is not a live row");
    }
    if (!seen.insert({t.part, t.tid}).second) {
      return wrong(Where(i, t) + " appears twice");
    }
    if (!Matches(mirror, query, t.part, t.tid)) {
      return wrong(Where(i, t) + " fails a predicate");
    }
    const double want = query.function->Evaluate(mirror.rank(t.part, t.tid));
    if (std::isnan(t.score) || !Close(t.score, want)) {
      return wrong(Where(i, t) + " scored " + std::to_string(t.score) +
                   ", mirror says " + std::to_string(want));
    }
    if (i > 0 && !(answer[i - 1].score <= t.score)) {
      return wrong(Where(i, t) + " breaks ascending order");
    }
    if (std::isinf(t.score)) ++padded;
  }
  if (padded > 0) {
    return CheckResult{Verdict::kPadded,
                       std::to_string(padded) + " of " +
                           std::to_string(answer.size()) +
                           " tuples scored +inf"};
  }
  return CheckResult{};
}

std::vector<double> BruteForceScores(const Mirror& mirror,
                                     const TopKQuery& query,
                                     uint64_t version) {
  std::vector<double> scores;
  for (size_t part = 0; part < mirror.num_partitions(); ++part) {
    if (!mirror.PartitionAlive(part, version)) continue;
    for (uint32_t tid = 0; tid < mirror.rows(part); ++tid) {
      if (!mirror.Alive(part, tid, version) ||
          !Matches(mirror, query, part, tid)) {
        continue;
      }
      double s = query.function->Evaluate(mirror.rank(part, tid));
      if (std::isfinite(s)) scores.push_back(s);
    }
  }
  size_t k = std::min(scores.size(), static_cast<size_t>(query.k));
  std::partial_sort(scores.begin(), scores.begin() + k, scores.end());
  scores.resize(k);
  return scores;
}

CheckResult CheckFull(const Mirror& mirror, const TopKQuery& query,
                      const std::vector<AnswerTuple>& answer, uint64_t version,
                      const std::vector<double>& expected) {
  CheckResult cheap = CheckAnswer(mirror, query, answer, version);
  if (cheap.verdict == Verdict::kWrong) return cheap;
  size_t finite = 0;
  while (finite < answer.size() && std::isfinite(answer[finite].score)) {
    ++finite;
  }
  bool same = finite == expected.size();
  for (size_t i = 0; same && i < finite; ++i) {
    same = Close(answer[i].score, expected[i]);
  }
  if (!same) {
    return CheckResult{Verdict::kWrong,
                       "score list differs from brute force (" +
                           std::to_string(finite) + " finite scores, " +
                           std::to_string(expected.size()) + " expected)"};
  }
  return cheap;
}

}  // namespace rcbench
