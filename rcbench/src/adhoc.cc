// adhoc_olap: one caller sends ad-hoc, planner-routed top-k queries to an
// in-process RankCubeDb. The relation has 8 selection dimensions (needle to
// binary) and 3 ranking dimensions; its heap plus structures exceed the
// buffer cache several times over, so single-page reads evict. The result
// cache is on at the daemon's default size, but no two queries of a round
// share predicates and k, so it only ever pays its miss path (no exact hit,
// no overfetch, no certified reuse). There are no writes.
//
// A round is a list of 4096 queries with a fixed make-up; every round draws
// fresh predicate values and function parameters, so a run averages over
// many distinct queries. Between rounds (outside the clock) the result cache
// and the planner feedback are reset, so each round starts from the same
// state: the pages a round charges depend only on the seed, and
// pages_per_query counts the first kPageRounds rounds, which every run
// completes, so it repeats exactly for a seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_builder.h"
#include "func/kernels/kernels.h"
#include "oracle.h"
#include "planner/rank_cube_db.h"
#include "trace.h"
#include "workloads.h"

namespace rcbench {
namespace {

using rankcube::ConstrainedSum;
using rankcube::ExprFunction;
using rankcube::GeneralAB;
using rankcube::IoCategory;
using rankcube::IoSession;
using rankcube::L1Distance;
using rankcube::LinearFunction;
using rankcube::QuadraticDistance;
using rankcube::QueryBuilder;
using rankcube::RankCubeDb;
using rankcube::RankingFunctionPtr;
using rankcube::ScoreExpr;
using rankcube::SquaredLinear;
using rankcube::TopKQuery;

constexpr uint64_t kRows = 50000;
const std::vector<int32_t> kSelCard = {2000, 200, 20, 12, 8, 4, 2, 2};
constexpr int kRankDims = 3;
/// 4 MiB of buffer cache against ~24 MiB of heap plus structures.
constexpr size_t kBufferPages = 1024;
constexpr size_t kResultCacheBytes = size_t{64} << 20;  // rankcubed default
constexpr int kSetups = 3;
/// Every 16th answer is checked by brute force, after its round.
constexpr size_t kSampleEvery = 16;
constexpr int kPageRounds = 2;

/// Every structure the planner may choose (all built during set-up).
const std::vector<std::string> kEngines = {
    "grid",          "fragments",   "signature", "ranking_first",
    "index_merge",   "boolean_first", "table_scan"};

/// Ranking-function shapes of the mix; also the func.* metric suffixes.
enum Shape { kLinear, kDistance, kL1, kSqLinear, kGeneralAB, kExpr, kGated };
const char* const kShapeNames[] = {"linear",     "distance", "l1",
                                   "sqlinear",   "general_ab", "expr",
                                   "constrained_sum"};
constexpr int kUngatedShapes = 6;

/// Page categories a query of this mix can touch.
const std::vector<IoCategory> kCategories = {
    IoCategory::kTable,     IoCategory::kPosting,   IoCategory::kBTree,
    IoCategory::kRTree,     IoCategory::kCuboid,    IoCategory::kBaseBlock,
    IoCategory::kSignature, IoCategory::kJoinSignature};

struct Op {
  TopKQuery query;
  std::string cls;
};

struct Setup {
  Mirror mirror{static_cast<int>(kSelCard.size()), kRankDims};
  std::unique_ptr<RankCubeDb> db;
  std::vector<Op> first_round;  ///< made during set-up, also the warm-up
  double generate_s = 0.0;
  std::map<std::string, double> build_s;
};

rankcube::TableSchema Schema() {
  rankcube::TableSchema schema;
  schema.sel_cardinality = kSelCard;
  schema.num_rank_dims = kRankDims;
  return schema;
}

RankCubeDb::Options DbOptions() {
  RankCubeDb::Options o;
  o.store.cache_pages = kBufferPages;
  o.store.read_latency_us = 0;
  o.cache.max_bytes = kResultCacheBytes;
  o.engines = kEngines;
  // Semi-materialization as a deployment would choose it: the full cube
  // over 8 dimensions (255 cuboids) is too large, so the grid holds the
  // low-dimensional subsets of the four most selective dimensions and the
  // fragments (F=2) cover every other conjunction.
  for (int a = 0; a < 4; ++a) {
    o.build.grid.cuboid_dim_sets.push_back({a});
    for (int b = a + 1; b < 4; ++b) o.build.grid.cuboid_dim_sets.push_back({a, b});
  }
  o.build.grid.cuboid_dim_sets.push_back({0, 1, 2});
  o.build.grid.cuboid_dim_sets.push_back({1, 2, 3});
  return o;
}

/// The i-th of n log-spaced k values spanning [lo, hi]. Every class walks
/// its whole ladder, so the mix of small and huge k is the same for every
/// seed and only the predicate values and function parameters vary.
int LadderK(int i, int n, int lo, int hi) {
  double x = lo * std::pow(static_cast<double>(hi) / lo, (i + 0.5) / n);
  return std::clamp(static_cast<int>(std::lround(x)), lo, hi);
}

RankingFunctionPtr MakeFunction(Shape shape, Rand& rng) {
  auto weights = [&](double lo, double hi) {
    std::vector<double> w(kRankDims);
    for (double& x : w) x = rng.Uniform(lo, hi);
    if (rng.Below(3) == 0) w[rng.Below(kRankDims)] = 0.0;  // 2 of 3 dims
    return w;
  };
  auto targets = [&] {
    std::vector<double> t(kRankDims);
    for (double& x : t) x = rng.Uniform01();
    return t;
  };
  switch (shape) {
    case kLinear:
      return std::make_shared<LinearFunction>(weights(0.1, 1.0));
    case kDistance:
      return std::make_shared<QuadraticDistance>(weights(0.5, 1.5), targets());
    case kL1:
      return std::make_shared<L1Distance>(weights(0.5, 1.5), targets());
    case kSqLinear:  // the min-square-error shape (2X - Y - Z)^2
      return std::make_shared<SquaredLinear>(std::vector<double>{
          rng.Uniform(1.5, 2.5), -rng.Uniform(0.5, 1.5),
          -rng.Uniform(0.5, 1.5)});
    case kGeneralAB: {
      int a = static_cast<int>(rng.Below(kRankDims));
      int b = (a + 1 + static_cast<int>(rng.Below(kRankDims - 1))) % kRankDims;
      return std::make_shared<GeneralAB>(kRankDims, a, b);
    }
    case kExpr: {
      // A user-defined tree no fused kernel matches: w0*N0 + (N1-t1)^2 +
      // w2*|N2-t2|, evaluated by the generic tree walk.
      auto e = ScoreExpr::Add(
          {ScoreExpr::Mul({ScoreExpr::Const(rng.Uniform(0.2, 1.0)),
                           ScoreExpr::Var(0)}),
           ScoreExpr::Square(ScoreExpr::Sub(
               ScoreExpr::Var(1), ScoreExpr::Const(rng.Uniform01()))),
           ScoreExpr::Mul({ScoreExpr::Const(rng.Uniform(0.2, 1.0)),
                           ScoreExpr::Abs(ScoreExpr::Sub(
                               ScoreExpr::Var(2),
                               ScoreExpr::Const(rng.Uniform01())))})});
      return std::make_shared<ExprFunction>(kRankDims, e, "user_expr");
    }
    case kGated:
      break;
  }
  return nullptr;
}

/// Constrained sum (N_a + N_b) gated on N_b in [lo, lo + width] (§5.4.2).
RankingFunctionPtr MakeGated(Rand& rng, double width, int* gate_dim,
                             double* lo) {
  int a = static_cast<int>(rng.Below(kRankDims));
  int b = (a + 1 + static_cast<int>(rng.Below(kRankDims - 1))) % kRankDims;
  *gate_dim = b;
  *lo = rng.Uniform(0.0, 1.0 - width);
  return std::make_shared<ConstrainedSum>(kRankDims, a, b, *lo, *lo + width);
}

/// One round of the mix. No two queries share (predicates, k): on a
/// collision k moves up by one.
std::vector<Op> MakeRound(const Mirror& m, uint64_t seed) {
  Rand rng(seed);
  std::vector<Op> ops;
  std::set<std::string> keys;
  const size_t rows = m.rows(0);
  auto add = [&](const std::string& cls, QueryBuilder qb,
                 const std::vector<std::pair<int, int32_t>>& preds, int k) {
    std::string pkey;
    for (const auto& [d, v] : preds) {
      qb.Where(d, v);
      pkey += std::to_string(d) + ":" + std::to_string(v) + ",";
    }
    while (!keys.insert(pkey + "|" + std::to_string(k)).second) ++k;
    ops.push_back(Op{qb.Limit(k).Build(), cls});
  };
  auto anchor = [&] { return static_cast<uint32_t>(rng.Below(rows)); };
  auto value = [&](uint32_t row, int dim) { return m.sel(0, row)[dim]; };
  int shape_cursor = 0;
  auto next_shape = [&] {
    return static_cast<Shape>(shape_cursor++ % kUngatedShapes);
  };
  auto ungated = [&](const std::string& cls, int count, int klo, int khi,
                     auto&& preds_fn) {
    for (int i = 0; i < count; ++i) {
      QueryBuilder qb;
      qb.OrderBy(MakeFunction(next_shape(), rng));
      add(cls, qb, preds_fn(), LadderK(i, count, klo, khi));
    }
  };
  using Preds = std::vector<std::pair<int, int32_t>>;
  ungated("needle", 1024, 1, 20, [&] {
    return Preds{{0, value(anchor(), 0)}};
  });
  ungated("pair", 768, 5, 100, [&] {
    uint32_t r = anchor();
    int d = 1 + static_cast<int>(rng.Below(2));  // (1,2) or (2,3)
    return Preds{{d, value(r, d)}, {d + 1, value(r, d + 1)}};
  });
  ungated("cross_fragment", 512, 5, 50, [&] {
    uint32_t r = anchor();
    return Preds{{3, value(r, 3)}, {5, value(r, 5)}, {6, value(r, 6)}};
  });
  ungated("broad", 768, 10, 500, [&] {
    int d = 4 + static_cast<int>(rng.Below(4));
    return Preds{{d, value(anchor(), d)}};
  });
  ungated("none", 640, 1, 5000, [] { return Preds{}; });

  // Gated queries where thousands of rows pass the gate: exact answers.
  for (int i = 0; i < 256; ++i) {
    int gate_dim = 0;
    double lo = 0.0;
    QueryBuilder qb;
    qb.OrderBy(MakeGated(rng, 0.3, &gate_dim, &lo));
    Preds preds;
    if (i % 2 == 1) {
      int d = 6 + static_cast<int>(rng.Below(2));
      preds.push_back({d, value(anchor(), d)});
    }
    add("gated", qb, preds, LadderK(i / 2, 128, 10, 200));
  }
  // Gated needle queries where fewer than k rows pass the gate: the answer
  // must hold only those rows. Chosen so at least one matching row lies
  // outside the gate, which is what the +inf padding fault returns.
  std::vector<std::vector<uint32_t>> by_needle(kSelCard[0]);
  for (uint32_t t = 0; t < rows; ++t) by_needle[m.sel(0, t)[0]].push_back(t);
  for (int i = 0; i < 128;) {
    int gate_dim = 0;
    double lo = 0.0;
    RankingFunctionPtr f = MakeGated(rng, 0.05, &gate_dim, &lo);
    int32_t v = value(anchor(), 0);
    size_t passing = 0;
    for (uint32_t t : by_needle[v]) {
      double x = m.rank(0, t)[gate_dim];
      passing += (x >= lo && x <= lo + 0.05);
    }
    constexpr int k = 50;
    if (passing >= by_needle[v].size() || passing >= static_cast<size_t>(k)) {
      continue;
    }
    QueryBuilder qb;
    qb.OrderBy(f);
    add("gated_short", qb, {{0, v}}, k);
    ++i;
  }
  // Interleave the classes deterministically so the round has no phases.
  for (size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[rng.Below(i)]);
  return ops;
}

std::vector<AnswerTuple> ToAnswer(const std::vector<rankcube::ScoredTuple>& tuples) {
  std::vector<AnswerTuple> a;
  a.reserve(tuples.size());
  for (const auto& t : tuples) a.push_back({0, t.tid, t.score});
  return a;
}

std::unique_ptr<Setup> MakeSetup(uint64_t seed) {
  auto s = std::make_unique<Setup>();
  int64_t t0 = NowNs();
  Rand data(SubSeed(seed, 1));
  const size_t part = s->mirror.AddPartition("", 0);
  std::vector<int32_t> sel(kSelCard.size());
  std::vector<double> rank(kRankDims);
  for (uint64_t i = 0; i < kRows; ++i) {
    for (size_t d = 0; d < kSelCard.size(); ++d) {
      sel[d] = static_cast<int32_t>(data.Below(kSelCard[d]));
    }
    for (double& x : rank) x = data.Uniform01();
    s->mirror.AddRow(part, sel.data(), rank.data(), 0);
  }
  s->generate_s = SecondsSince(t0);

  rankcube::Table table(Schema());
  for (uint32_t t = 0; t < kRows; ++t) {
    sel.assign(s->mirror.sel(part, t), s->mirror.sel(part, t) + sel.size());
    rank.assign(s->mirror.rank(part, t), s->mirror.rank(part, t) + kRankDims);
    rankcube::Status st = table.AddRow(sel, rank);
    if (!st.ok()) {
      std::fprintf(stderr, "adhoc_olap: load: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  s->db = std::make_unique<RankCubeDb>(std::move(table), DbOptions());
  for (const std::string& e : kEngines) {
    int64_t b0 = NowNs();
    auto built = s->db->Engine(e);
    if (!built.ok()) {
      std::fprintf(stderr, "adhoc_olap: build %s: %s\n", e.c_str(),
                   built.status().ToString().c_str());
      std::exit(1);
    }
    s->build_s[e] = SecondsSince(b0);
  }
  s->first_round = MakeRound(s->mirror, SubSeed(seed, 100));
  // Warm-up: a quarter round fills the buffer cache; then the state every
  // round starts from.
  for (size_t i = 0; i < s->first_round.size() / 4; ++i) {
    (void)s->db->Query(s->first_round[i].query);
  }
  s->db->ClearCache();
  s->db->ResetFeedback();
  return s;
}

/// What the traced pass measures besides spans, per query.
struct Probes {
  std::vector<double> est_log_ratio;
  std::map<std::string, uint64_t> routes;
  uint64_t scored = 0;
  uint64_t answered = 0;
  uint64_t direct_queries = 0;
  std::map<IoCategory, uint64_t> category_pages;
};

struct Pass {
  std::vector<double> latency_ns;
  uint64_t queries = 0;
  uint64_t prefix_pages = 0, prefix_queries = 0;
  double wall_s = 0.0;
  int rounds = 0;
};

/// Runs whole rounds until `seconds` have been measured and kPageRounds
/// rounds are done (or exactly `rounds` rounds when positive). With a
/// tracer, also runs the per-query probes of the traced run after each
/// timed call. The answers of a round are kept and checked after the
/// round's time is taken, so the clock measures only the db's calls.
Pass RunRounds(Setup& s, uint64_t seed, double seconds, int rounds,
               Tracer& tracer, Probes* probes, Outcome& out) {
  Pass pass;
  const int q_name = tracer.Name("db.query");
  const int explain_name = tracer.Name("planner.explain");
  std::map<std::string, int> exec_names;
  for (const std::string& e : kEngines) {
    exec_names[e] = tracer.Name("engine.execute." + e);
  }
  uint64_t op_id = 0;
  std::vector<std::pair<size_t, std::vector<rankcube::ScoredTuple>>> answers;
  while (true) {
    const std::vector<Op> ops =
        pass.rounds == 0 ? s.first_round
                         : MakeRound(s.mirror, SubSeed(seed, 100 + pass.rounds));
    answers.clear();
    answers.reserve(ops.size());
    int64_t round_start = NowNs();
    for (size_t i = 0; i < ops.size(); ++i, ++op_id) {
      const TopKQuery& q = ops[i].query;
      int64_t t0 = NowNs();
      int64_t span = tracer.Begin(q_name, op_id);
      auto r = s.db->Query(q);
      tracer.End(span);
      pass.latency_ns.push_back(static_cast<double>(NowNs() - t0));
      ++out.attempted;
      if (!r.ok()) {
        ++out.failed;
        out.Problem("adhoc_olap: " + q.ToString() + ": " +
                        r.status().ToString(),
                    false);
        continue;
      }
      if (pass.rounds < kPageRounds) {
        pass.prefix_pages += r.value().stats.pages_read;
        ++pass.prefix_queries;
      }
      answers.emplace_back(i, std::move(r.value().tuples));
      if (probes == nullptr || r.value().plan == nullptr) continue;

      // Per-layer probes, outside the timed call, caused by its span.
      const rankcube::PlanInfo& plan = *r.value().plan;
      {
        ScopedSpan sp(tracer, explain_name, op_id, span);
        (void)s.db->Explain(q);
      }
      probes->est_log_ratio.push_back(
          std::log(std::max(plan.estimated_pages, 1.0) /
                   std::max(static_cast<double>(r.value().stats.pages_read),
                            1.0)));
      ++probes->routes[plan.chosen_engine];
      auto engine = s.db->Engine(plan.chosen_engine);
      if (!engine.ok()) continue;
      IoSession io(&s.db->store());
      rankcube::ExecContext ctx;
      ctx.io = &io;
      rankcube::Result<rankcube::TopKResult> direct =
          rankcube::Status::Internal("not run");
      {
        ScopedSpan sp(tracer, exec_names[plan.chosen_engine], op_id, span);
        direct = engine.value()->Execute(q, ctx);
      }
      if (!direct.ok()) continue;
      ++probes->direct_queries;
      probes->scored += direct.value().stats.tuples_evaluated;
      probes->answered += direct.value().tuples.size();
      for (IoCategory cat : kCategories) {
        probes->category_pages[cat] += io.stats(cat).physical;
      }
    }
    pass.wall_s += SecondsSince(round_start);
    pass.queries += ops.size();
    ++pass.rounds;
    s.db->ClearCache();
    s.db->ResetFeedback();
    // The cheap checks on every answer of the round, the brute-force score
    // list on every kSampleEvery-th.
    for (const auto& [i, tuples] : answers) {
      const TopKQuery& q = ops[i].query;
      const std::vector<AnswerTuple> answer = ToAnswer(tuples);
      CheckResult c =
          i % kSampleEvery == 0
              ? CheckFull(s.mirror, q, answer, 0, BruteForceScores(s.mirror, q, 0))
              : CheckAnswer(s.mirror, q, answer, 0);
      if (c.verdict != Verdict::kOk) {
        ++out.failed;
        out.Problem("adhoc_olap " + ops[i].cls + ": " + q.ToString() + ": " +
                        c.why,
                    c.verdict == Verdict::kWrong);
      }
    }
    if (rounds > 0 ? pass.rounds >= rounds
                   : pass.wall_s >= seconds && pass.rounds >= kPageRounds) {
      break;
    }
  }
  return pass;
}

/// ns per tuple of the FusedScorer for each function shape of the mix, over
/// a fixed dense block (consecutive tids) and a fixed indexed block
/// (scattered tids).
void ScoreKernels(const Setup& s, uint64_t seed, Outcome& out) {
  constexpr size_t kBlock = 4096;
  constexpr int kReps = 101;
  const rankcube::Table& table = s.db->table();
  std::vector<rankcube::Tid> dense(kBlock), indexed(kBlock);
  Rand rng(SubSeed(seed, 9));
  for (size_t i = 0; i < kBlock; ++i) {
    dense[i] = static_cast<rankcube::Tid>(i);
    indexed[i] = static_cast<rankcube::Tid>(rng.Below(table.num_rows()));
  }
  for (int shape = 0; shape <= kGated; ++shape) {
    int gate_dim = 0;
    double lo = 0.0;
    RankingFunctionPtr f = shape == kGated
                               ? MakeGated(rng, 0.3, &gate_dim, &lo)
                               : MakeFunction(static_cast<Shape>(shape), rng);
    std::vector<double> per_tuple;
    for (int rep = 0; rep < kReps; ++rep) {
      rankcube::TopKHeap heap(10);
      rankcube::ExecStats stats;
      rankcube::kernels::FusedScorer scorer(table, *f, &heap, &stats);
      int64_t t0 = NowNs();
      scorer.ScoreBlock(dense.data(), dense.size());
      scorer.ScoreBlock(indexed.data(), indexed.size());
      per_tuple.push_back(static_cast<double>(NowNs() - t0) / (2.0 * kBlock));
    }
    out.Set(std::string("func.score_ns_per_tuple.") + kShapeNames[shape],
            Median(per_tuple), "ns", per_tuple.size());
  }
}

}  // namespace

Outcome RunAdhocOlap(const RunArgs& args) {
  Outcome out;
  std::unique_ptr<Setup> s = SetUp<Setup>(out, args.trace ? 1 : kSetups,
                                          [&] { return MakeSetup(args.seed); });
  const size_t built_before = s->db->Stats().engines_built;
  Tracer off(false);
  Pass plain = RunRounds(*s, args.seed, args.seconds, 0, off, nullptr, out);
  if (s->db->Stats().engines_built != built_before) {
    out.Problem("adhoc_olap: a structure was built during the timed phase",
                true);
  }

  if (!args.trace) {
    out.Latencies("query", plain.latency_ns);
    out.Set("ops_per_s", static_cast<double>(plain.queries) / plain.wall_s,
            "1/s", plain.queries);
    out.Set("pages_per_query",
            static_cast<double>(plain.prefix_pages) /
                static_cast<double>(plain.prefix_queries),
            "pages", plain.prefix_queries);
    out.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
    return out;
  }

  // Traced run: replay the same rounds with spans and per-layer probes.
  Tracer tracer(true);
  Probes probes;
  const rankcube::DbStats before = s->db->Stats();
  const rankcube::ResultCacheStats cache_before = s->db->CacheStats();
  Pass traced =
      RunRounds(*s, args.seed, 0.0, plain.rounds, tracer, &probes, out);
  const rankcube::DbStats after = s->db->Stats();
  const rankcube::ResultCacheStats cache_after = s->db->CacheStats();
  const uint64_t n = traced.queries;

  TraceOverhead(plain.latency_ns, traced.latency_ns, out);
  out.Set("gen.generate_s", s->generate_s, "s", 1);
  for (const auto& [engine, secs] : s->build_s) {
    out.Set("engine.build_s." + engine, secs, "s", 1);
  }
  std::vector<double> plan_ns = tracer.DurationsNs("planner.explain");
  out.Set("planner.plan_us", Median(plan_ns) * 1e-3, "us", plan_ns.size());
  out.Set("planner.estimate_ratio", std::exp(Mean(probes.est_log_ratio)), "x",
          probes.est_log_ratio.size());
  for (const std::string& e : kEngines) {
    auto it = probes.routes.find(e);
    uint64_t routed = it == probes.routes.end() ? 0 : it->second;
    out.Set("planner.route_share." + e,
            static_cast<double>(routed) / static_cast<double>(n), "share", n);
    std::vector<double> exec_ns = tracer.DurationsNs("engine.execute." + e);
    out.Set("engine.exec_p50_us." + e, Median(exec_ns) * 1e-3, "us",
            exec_ns.size());
  }
  out.Set("engine.scored_per_answer",
          static_cast<double>(probes.scored) /
              static_cast<double>(std::max<uint64_t>(probes.answered, 1)),
          "tuples", probes.direct_queries);
  for (IoCategory cat : kCategories) {
    out.Set(std::string("storage.pages_per_query.") +
                rankcube::IoCategoryName(cat),
            static_cast<double>(probes.category_pages[cat]) /
                static_cast<double>(std::max<uint64_t>(probes.direct_queries, 1)),
            "pages", probes.direct_queries);
  }
  BufferHitRate(before, after, out);
  CacheRates(cache_before, cache_after, out);
  ScoreKernels(*s, args.seed, out);
  if (!WriteSpans(args.spans_path, {&tracer})) {
    std::fprintf(stderr, "adhoc_olap: cannot write spans\n");
  }
  return out;
}

}  // namespace rcbench
