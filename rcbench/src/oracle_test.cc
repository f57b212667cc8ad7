// Tests of the benchmark's answer checker on a tiny relation whose answers
// are computed by hand: score ties, rows a gate excludes, a deleted row and
// a dropped partition. Exits non-zero when any expectation fails.
//
//   .bench_build/rcbench_oracle_test
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "engine/query_builder.h"
#include "oracle.h"

namespace rcbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool SameScores(const std::vector<double>& got,
                const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i] - want[i]) > 1e-12) return false;
  }
  return true;
}

int Run() {
  using rankcube::QueryBuilder;
  // One selection dimension (values 0/1), two ranking dimensions.
  Mirror m(1, 2);
  const size_t p0 = m.AddPartition("p0", 0);
  const size_t p1 = m.AddPartition("p1", 0);
  auto add = [&](size_t part, int32_t a, double x, double y) {
    int32_t sel[1] = {a};
    double rank[2] = {x, y};
    return m.AddRow(part, sel, rank, 0);
  };
  add(p0, 0, 0.1, 0.2);   // p0 tid 0: x+y = 0.3
  add(p0, 0, 0.2, 0.1);   // p0 tid 1: 0.3 (tie with tid 0)
  add(p0, 1, 0.0, 0.5);   // p0 tid 2: 0.5
  add(p0, 0, 0.4, 0.4);   // p0 tid 3: 0.8
  add(p1, 0, 0.05, 0.05); // p1 tid 0: 0.1
  add(p1, 1, 0.3, 0.3);   // p1 tid 1: 0.6
  m.KillRow(p0, 1, 1);    // version 1: delete p0 tid 1
  m.DropPartition(p1, 2); // version 2: drop p1

  const double s00 = 0.1 + 0.2, s01 = 0.2 + 0.1, s02 = 0.0 + 0.5,
               s03 = 0.4 + 0.4, s10 = 0.05 + 0.05, s11 = 0.3 + 0.3;
  auto sum = QueryBuilder().OrderByLinear({1.0, 1.0});

  // Brute force follows the version: the delete, then the drop.
  auto top3 = sum.Limit(3).Build();
  Expect(SameScores(BruteForceScores(m, top3, 0), {s10, s00, s01}),
         "top-3 at version 0 keeps both tied rows");
  Expect(SameScores(BruteForceScores(m, top3, 1), {s10, s00, s02}),
         "top-3 at version 1 skips the deleted row");
  Expect(SameScores(BruteForceScores(m, top3, 2), {s00, s02, s03}),
         "top-3 at version 2 skips the dropped partition");
  Expect(SameScores(BruteForceScores(m, sum.Limit(10).Build(), 0),
                    {s10, s00, s01, s02, s11, s03}),
         "k beyond the row count lists every row");
  Expect(m.LiveRows(p0, 0) == 4 && m.LiveRows(p0, 1) == 3 &&
             m.LiveRows(p1, 1) == 2 && m.LiveRows(p1, 2) == 0,
         "live row counts follow deletes and drops");
  Expect(!m.PartitionAlive(p1, 2) && m.Find("p1") == p1 &&
             m.Find("nope") == Mirror::kNoPartition,
         "partition lookup");

  // Ties may come back in either order.
  std::vector<AnswerTuple> tie_a = {{p1, 0, s10}, {p0, 0, s00}, {p0, 1, s01}};
  std::vector<AnswerTuple> tie_b = {{p1, 0, s10}, {p0, 1, s01}, {p0, 0, s00}};
  const std::vector<double> want0 = BruteForceScores(m, top3, 0);
  Expect(CheckFull(m, top3, tie_a, 0, want0).verdict == Verdict::kOk,
         "tied answer, one order");
  Expect(CheckFull(m, top3, tie_b, 0, want0).verdict == Verdict::kOk,
         "tied answer, other order");
  std::vector<AnswerTuple> short_answer = {{p1, 0, s10}, {p0, 0, s00}};
  Expect(CheckAnswer(m, top3, short_answer, 0).verdict == Verdict::kOk,
         "a short answer passes the cheap checks");
  Expect(CheckFull(m, top3, short_answer, 0, want0).verdict == Verdict::kWrong,
         "a short answer fails the brute-force check");

  // The cheap checks catch each kind of wrong tuple.
  Expect(CheckAnswer(m, top3, tie_a, 1).verdict == Verdict::kWrong,
         "a deleted row is not live after the delete");
  Expect(CheckAnswer(m, top3, {{p1, 0, s10}}, 2).verdict == Verdict::kWrong,
         "a dropped partition's row is not live after the drop");
  Expect(CheckAnswer(m, top3, {{p0, 0, s00 + 1e-6}}, 0).verdict ==
             Verdict::kWrong,
         "a wrong score");
  Expect(CheckAnswer(m, top3, {{p0, 0, s00}, {p1, 0, s10}}, 0).verdict ==
             Verdict::kWrong,
         "descending scores");
  Expect(CheckAnswer(m, top3, {{p0, 0, s00}, {p0, 0, s00}}, 0).verdict ==
             Verdict::kWrong,
         "a tuple twice");
  Expect(CheckAnswer(m, sum.Limit(1).Build(), {{p1, 0, s10}, {p0, 0, s00}}, 0)
                 .verdict == Verdict::kWrong,
         "more than k tuples");
  Expect(CheckAnswer(m, sum.Limit(3).Build(), {{p0, 9, s00}}, 0).verdict ==
             Verdict::kWrong,
         "a tid past the end");
  auto where0 = QueryBuilder().Where(0, 0).OrderByLinear({1.0, 1.0}).Limit(3);
  Expect(CheckAnswer(m, where0.Build(), {{p0, 2, s02}}, 0).verdict ==
             Verdict::kWrong,
         "a row failing the predicate");

  // Gate on dimension 1 in [0.15, 0.45]: among A0 = 0 rows only p0 tid 0
  // (y = 0.2) and p0 tid 3 (y = 0.4) pass; p0 tid 1 and p1 tid 0 score +inf.
  auto gated = QueryBuilder()
                   .Where(0, 0)
                   .OrderBy(std::make_shared<rankcube::ConstrainedSum>(
                       2, 0, 1, 0.15, 0.45))
                   .Limit(3)
                   .Build();
  const std::vector<double> gated_want = BruteForceScores(m, gated, 0);
  Expect(SameScores(gated_want, {s00, s03}), "gated rows never rank");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<AnswerTuple> exact = {{p0, 0, s00}, {p0, 3, s03}};
  std::vector<AnswerTuple> padded = {{p0, 0, s00}, {p0, 3, s03}, {p0, 1, inf}};
  Expect(CheckFull(m, gated, exact, 0, gated_want).verdict == Verdict::kOk,
         "exact gated answer");
  Expect(CheckFull(m, gated, padded, 0, gated_want).verdict ==
             Verdict::kPadded,
         "an answer padded with +inf is the padding fault");
  Expect(CheckAnswer(m, gated, {{p0, 0, s00}, {p0, 2, inf}}, 0).verdict ==
             Verdict::kWrong,
         "+inf padding with a row failing the predicate is plain wrong");
  Expect(CheckAnswer(m, gated, {{p0, 0, s00}, {p0, 3, inf}}, 0).verdict ==
             Verdict::kWrong,
         "+inf for a row inside the gate is plain wrong");

  if (failures == 0) std::printf("oracle_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rcbench

int main() { return rcbench::Run(); }
