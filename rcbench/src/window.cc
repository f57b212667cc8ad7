// window_ingest: one caller drives a durable PartitionedDb (fsync policy
// batch, rankcubed's default, with the data directory in the run's scratch
// area), one partition per time window. Ranks drift with recency: the
// newer the window, the lower (better) its rows score.
//
// A round is one window period: roll retention (create the next window,
// drop the oldest), then insert one window's worth of rows into the newest
// window, interleaved with windowed queries (equality on the window
// dimension, so predicate pruning applies), cross-window queries (bound
// pruning, scatter waves), a few deletes in recent windows and a Compact
// every kCompactEvery inserts. Writes land beside reads on the same
// engines. After the timed phase the db is closed without a final
// checkpoint and reopened; every acknowledged write must be there.
//
// The state keeps evolving from round to round, so pages_per_query counts
// the queries of the first kPageRounds rounds, which every run completes:
// that count repeats exactly for a seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_builder.h"
#include "oracle.h"
#include "partition/partitioned_db.h"
#include "trace.h"
#include "workloads.h"

namespace rcbench {
namespace {

using rankcube::PartitionedDb;
using rankcube::PartitionedTopK;
using rankcube::QueryBuilder;
using rankcube::TopKQuery;

constexpr int32_t kWindowCard = 512;  ///< window-dimension domain (ids wrap)
constexpr int32_t kCategoryCard = 16;
constexpr int32_t kRegionCard = 4;
constexpr int kSelDims = 3;
constexpr int kRankDims = 2;
constexpr int kLiveWindows = 12;
constexpr int kRowsPerWindow = 2000;  ///< initial windows and each round
constexpr int kWindowedEvery = 8;     ///< inserts per windowed query
constexpr int kCrossEvery = 24;       ///< inserts per cross-window query
constexpr int kDeleteEvery = 50;      ///< inserts per delete
constexpr int kCompactEvery = 2000;   ///< inserts per Compact
constexpr int kPageRounds = 8;
constexpr int kSetups = 5;  ///< set-up fsyncs, so its time swings more
constexpr int kSampleEvery = 8;  ///< brute-force every 8th query answer
/// Scatter-level result cache. Smaller than rankcubed's 64 MiB so that it
/// fills within the first rounds: memory then stays level, as in a server
/// that has run for a while, instead of growing with the run's length.
constexpr size_t kResultCacheBytes = size_t{4} << 20;
constexpr size_t kBufferPages = 4096;  // rankcubed default
constexpr double kUserRowBytes = kSelDims * 4 + kRankDims * 8;

std::string WindowName(int n) { return "w" + std::to_string(n); }

/// Score level of window n: 0.8 at the first window, falling 0.8/128 per
/// window (a sawtooth over 128 windows), plus 0.15 of uniform noise.
void WindowRow(int n, Rand& rng, int32_t* sel, double* rank) {
  sel[0] = n % kWindowCard;
  sel[1] = static_cast<int32_t>(rng.Below(kCategoryCard));
  sel[2] = static_cast<int32_t>(rng.Below(kRegionCard));
  const double base = 1.0 - static_cast<double>(n % 128) / 128.0;
  for (int d = 0; d < kRankDims; ++d) rank[d] = 0.8 * base + 0.15 * rng.Uniform01();
}

struct Setup {
  Mirror mirror{kSelDims, kRankDims};
  std::unique_ptr<PartitionedDb> pdb;
  PartitionedDb::Options options;
  uint64_t version = 0;  ///< mutations applied so far
  int newest = kLiveWindows - 1;
  uint64_t windowed_made = 0, cross_made = 0;  ///< query shape cycles
  Rand rows{0};     ///< insert stream
  Rand queries{0};  ///< query, delete and parameter stream
  double generate_s = 0.0;
};

PartitionedDb::Options Options(const std::string& dir) {
  PartitionedDb::Options o;
  o.schema.sel_cardinality = {kWindowCard, kCategoryCard, kRegionCard};
  o.schema.num_rank_dims = kRankDims;
  o.partition_dim = 0;
  o.db.store.cache_pages = kBufferPages;
  o.db.store.read_latency_us = 0;
  // As rankcubed serves partitions: one result cache at the scatter layer.
  o.db.cache.max_bytes = 0;
  o.cache.max_bytes = kResultCacheBytes;
  o.data_dir = dir;
  o.fsync = rankcube::FsyncPolicy::kBatch;
  // Sequential scatter waves. With the default of 4, every wave starts one
  // thread per candidate partition, and on a shared 4-vCPU VM that made the
  // query p99 and the throughput swing 2x with host scheduling from run to
  // run; one at a time, waves and bound pruning run the same way, steadily.
  o.scatter_threads = 1;
  return o;
}

[[noreturn]] void Die(const std::string& what, const rankcube::Status& st) {
  std::fprintf(stderr, "window_ingest: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

/// A windowed query (equality on one of the three newest windows) or a
/// cross-window one. The shape (window, category filter or not, k,
/// linear or distance) cycles through every combination, so every seed gets
/// the same mix; category values and function parameters are drawn.
TopKQuery MakeQuery(Setup& s, bool windowed) {
  Rand& rng = s.queries;
  uint64_t c = windowed ? s.windowed_made++ : s.cross_made++;
  QueryBuilder qb;
  if (windowed) {
    qb.Where(0, (s.newest - static_cast<int>(c % 3)) % kWindowCard);
    c /= 3;
  }
  if (c % 2 == 0) qb.Where(1, static_cast<int32_t>(rng.Below(kCategoryCard)));
  if ((c / 2) % 2 == 0) {
    qb.OrderByLinear({rng.Uniform(0.2, 1.0), rng.Uniform(0.2, 1.0)});
  } else {
    qb.OrderByDistance({1.0, 1.0}, {rng.Uniform(0.0, 0.3), rng.Uniform(0.0, 0.3)});
  }
  const int k = windowed ? ((c / 4) % 2 == 0 ? 10 : 50)
                         : ((c / 4) % 2 == 0 ? 10 : 100);
  return qb.Limit(k).Build();
}

std::unique_ptr<Setup> MakeSetup(uint64_t seed, const std::string& dir) {
  auto s = std::make_unique<Setup>();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  int64_t t0 = NowNs();
  Rand data(SubSeed(seed, 1));
  int32_t sel[kSelDims];
  double rank[kRankDims];
  for (int w = 0; w < kLiveWindows; ++w) {
    size_t part = s->mirror.AddPartition(WindowName(w), 0);
    for (int i = 0; i < kRowsPerWindow; ++i) {
      WindowRow(w, data, sel, rank);
      s->mirror.AddRow(part, sel, rank, 0);
    }
  }
  s->generate_s = SecondsSince(t0);

  s->options = Options(dir);
  auto opened = PartitionedDb::Open(s->options);
  if (!opened.ok()) Die("open " + dir, opened.status());
  s->pdb = std::move(opened).value();
  for (int w = 0; w < kLiveWindows; ++w) {
    rankcube::Table seed_rows(s->options.schema);
    for (uint32_t t = 0; t < kRowsPerWindow; ++t) {
      rankcube::Status st = seed_rows.AddRow(
          std::vector<int32_t>(s->mirror.sel(w, t), s->mirror.sel(w, t) + kSelDims),
          std::vector<double>(s->mirror.rank(w, t), s->mirror.rank(w, t) + kRankDims));
      if (!st.ok()) Die("load", st);
    }
    rankcube::Status st = s->pdb->CreatePartition(WindowName(w), {w, w + 1},
                                                  std::move(seed_rows));
    if (!st.ok()) Die("create " + WindowName(w), st);
  }
  s->rows = Rand(SubSeed(seed, 6));
  // Warm-up: queries over every window build the structures the planners
  // pick, from a stream of its own so the timed stream is unchanged.
  s->queries = Rand(SubSeed(seed, 5));
  for (int i = 0; i < 4 * kLiveWindows; ++i) {
    s->newest = i % kLiveWindows;
    (void)s->pdb->Query(MakeQuery(*s, i % 2 == 0));
  }
  s->newest = kLiveWindows - 1;
  s->queries = Rand(SubSeed(seed, 7));
  s->windowed_made = s->cross_made = 0;
  return s;
}

struct Probes {
  std::vector<double> overlay_rows;
  std::vector<double> wal_bytes;
  std::vector<double> compact_pages;
  uint64_t queried = 0, pruned_predicate = 0, pruned_bound = 0, useful = 0;
  uint64_t queries = 0;
};

struct Pass {
  std::vector<double> query_ns, write_ns, compact_ns;
  uint64_t ops = 0;
  uint64_t prefix_pages = 0, prefix_queries = 0;
  uint64_t inserts = 0;
  double wall_s = 0.0;
  int rounds = 0;
  /// The round's query answers, checked after its time is taken.
  struct Answer {
    TopKQuery query;
    uint64_t version;  ///< mutations the query saw
    bool sampled;      ///< gets the brute-force check
    std::vector<rankcube::PartitionedTuple> tuples;
  };
  std::vector<Answer> answers;
};

/// Checks the round's answers at the version each saw: the cheap checks on
/// every one, the brute-force score list on the sampled ones. Done after
/// every round, so the mirror can forget dropped windows.
void CheckAnswers(const Setup& s, Pass& pass, Outcome& out) {
  for (const Pass::Answer& a : pass.answers) {
    std::vector<AnswerTuple> answer;
    answer.reserve(a.tuples.size());
    for (const auto& t : a.tuples) {
      size_t part = s.mirror.Find(t.partition);
      answer.push_back({part == Mirror::kNoPartition ? s.mirror.num_partitions() : part,
                        t.tid, t.score});
    }
    CheckResult c =
        a.sampled ? CheckFull(s.mirror, a.query, answer, a.version,
                              BruteForceScores(s.mirror, a.query, a.version))
                  : CheckAnswer(s.mirror, a.query, answer, a.version);
    if (c.verdict != Verdict::kOk) {
      ++out.failed;
      out.Problem("window_ingest: " + a.query.ToString() + ": " + c.why,
                  c.verdict == Verdict::kWrong);
    }
  }
  pass.answers.clear();
}

/// Runs whole rounds until `seconds` have been measured and at least
/// kPageRounds rounds are done (or exactly `rounds` rounds when positive).
void RunRounds(Setup& s, double seconds, int rounds, Tracer& tracer,
               Probes* probes, Pass& pass, Outcome& out) {
  const int n_query = tracer.Name("pdb.query");
  const int n_insert = tracer.Name("pdb.insert");
  const int n_delete = tracer.Name("pdb.delete");
  const int n_compact = tracer.Name("pdb.compact");
  const int n_create = tracer.Name("pdb.create_partition");
  const int n_drop = tracer.Name("pdb.drop_partition");
  const int n_explain = tracer.Name("pdb.explain_scatter");
  uint64_t op = 0;
  int64_t last_span = -1;  ///< span of the latest timed call
  auto timed = [&](int name, auto&& call, std::vector<double>* ns) {
    int64_t t0 = NowNs();
    last_span = tracer.Begin(name, op);
    auto r = call();
    tracer.End(last_span);
    if (ns != nullptr) ns->push_back(static_cast<double>(NowNs() - t0));
    ++pass.ops;
    ++out.attempted;
    ++op;
    return r;
  };
  auto fail = [&](const std::string& what, const rankcube::Status& st) {
    ++out.failed;
    out.Problem("window_ingest: " + what + ": " + st.ToString(), false);
  };

  auto query = [&](bool windowed) {
    TopKQuery q = MakeQuery(s, windowed);
    auto r = timed(n_query, [&] { return s.pdb->Query(q); }, &pass.query_ns);
    if (!r.ok()) return fail(q.ToString(), r.status());
    const int64_t query_span = last_span;
    PartitionedTopK& res = r.value();
    if (pass.rounds < kPageRounds) {
      pass.prefix_pages += res.stats.pages_read;
      ++pass.prefix_queries;
    }
    const bool sampled = pass.query_ns.size() % kSampleEvery == 0;
    pass.answers.push_back({std::move(q), s.version, sampled, std::move(res.tuples)});
    if (probes == nullptr) return;
    const Pass::Answer& a = pass.answers.back();
    std::set<std::string> contributing;
    for (const auto& t : a.tuples) contributing.insert(t.partition);
    ++probes->queries;
    probes->queried += res.scatter.queried;
    probes->pruned_predicate += res.scatter.pruned_by_predicate;
    probes->pruned_bound += res.scatter.pruned_by_bound;
    if (res.scatter.queried > 0) probes->useful += contributing.size();
    {
      ScopedSpan sp(tracer, n_explain, op - 1, query_span);
      (void)s.pdb->ExplainScatter(a.query);
    }
    if (probes->queries % kSampleEvery == 0) {
      double pending = 0;
      for (const auto& info : s.pdb->ListPartitions()) {
        auto db = s.pdb->Partition(info.name);
        if (!db.ok()) continue;
        uint64_t worst = 0;
        for (const auto& [engine, f] : db.value()->FreshnessByEngine()) {
          worst = std::max(worst, f.pending_inserts + f.pending_deletes);
        }
        pending += static_cast<double>(worst);
      }
      probes->overlay_rows.push_back(pending);
    }
  };

  while (true) {
    int64_t round_start = NowNs();
    // Roll retention: the next window opens, the oldest closes.
    const int next = s.newest + 1;
    const std::string oldest = WindowName(next - kLiveWindows);
    rankcube::Status created = timed(n_create, [&] {
      return s.pdb->CreatePartition(WindowName(next),
                                    {next % kWindowCard, next % kWindowCard + 1});
    }, nullptr);
    if (!created.ok()) Die("create " + WindowName(next), created);
    s.mirror.AddPartition(WindowName(next), ++s.version);
    rankcube::Status dropped =
        timed(n_drop, [&] { return s.pdb->DropPartition(oldest); }, nullptr);
    if (!dropped.ok()) Die("drop " + oldest, dropped);
    const size_t oldest_part = s.mirror.Find(oldest);
    s.mirror.DropPartition(oldest_part, ++s.version);
    // Every answer of the previous rounds is checked already.
    s.mirror.ForgetRows(oldest_part);
    s.newest = next;
    const size_t newest_part = s.mirror.Find(WindowName(next));

    for (int i = 1; i <= kRowsPerWindow; ++i) {
      int32_t sel[kSelDims];
      double rank[kRankDims];
      WindowRow(s.newest, s.rows, sel, rank);
      std::vector<int32_t> sel_v(sel, sel + kSelDims);
      std::vector<double> rank_v(rank, rank + kRankDims);
      uint64_t wal_before = 0;
      const bool probe_wal = probes != nullptr && i % kSampleEvery == 0;
      if (probe_wal) wal_before = s.pdb->PartitionStats(WindowName(next)).value().wal_bytes;
      auto ins = timed(n_insert, [&] { return s.pdb->Insert(sel_v, rank_v); },
                       &pass.write_ns);
      if (!ins.ok()) {
        fail("insert", ins.status());
      } else {
        uint32_t tid = s.mirror.AddRow(newest_part, sel, rank, ++s.version);
        ++pass.inserts;
        if (ins.value().partition != WindowName(next) || ins.value().tid != tid) {
          ++out.failed;
          out.Problem("window_ingest: insert acknowledged as " +
                          ins.value().partition + "/" +
                          std::to_string(ins.value().tid),
                      true);
        }
        if (probe_wal) {
          probes->wal_bytes.push_back(static_cast<double>(
              s.pdb->PartitionStats(WindowName(next)).value().wal_bytes -
              wal_before));
        }
      }
      if (i % kWindowedEvery == 0) query(true);
      if (i % kCrossEvery == 0) query(false);
      if (i % kDeleteEvery == 0) {
        // A live row of one of the two windows before the newest.
        const size_t part = s.mirror.Find(
            WindowName(s.newest - 1 - static_cast<int>(s.queries.Below(2))));
        uint32_t tid = static_cast<uint32_t>(s.queries.Below(s.mirror.rows(part)));
        while (!s.mirror.Alive(part, tid, s.version)) {
          tid = (tid + 1) % static_cast<uint32_t>(s.mirror.rows(part));
        }
        rankcube::Status del = timed(n_delete, [&] {
          return s.pdb->Delete(s.mirror.name(part), tid);
        }, &pass.write_ns);
        if (del.ok()) {
          s.mirror.KillRow(part, tid, ++s.version);
        } else {
          fail("delete", del);
        }
      }
      // Mid-phase, so every round ends with WAL records to replay.
      if (i % kCompactEvery == kCompactEvery / 2) {
        auto rep = timed(n_compact, [&] { return s.pdb->Compact(); },
                         &pass.compact_ns);
        if (!rep.ok()) {
          fail("compact", rep.status());
        } else if (probes != nullptr) {
          probes->compact_pages.push_back(static_cast<double>(rep.value().pages));
        }
      }
    }
    pass.wall_s += SecondsSince(round_start);
    ++pass.rounds;
    CheckAnswers(s, pass, out);  // outside the clock
    if (rounds > 0 ? pass.rounds >= rounds
                   : pass.wall_s >= seconds && pass.rounds >= kPageRounds) {
      break;
    }
  }
}

/// Closes the db without a checkpoint, reopens it (timed) and checks that
/// every partition holds exactly the mirror's live rows. Returns the
/// reopen time; the reopened db replaces the closed one.
double Reopen(Setup& s, Outcome& out, uint64_t* recovered) {
  s.pdb.reset();
  int64_t t0 = NowNs();
  auto opened = PartitionedDb::Open(s.options);
  const double secs = SecondsSince(t0);
  ++out.attempted;
  if (!opened.ok()) {
    ++out.failed;
    out.Problem("window_ingest: reopen: " + opened.status().ToString(), true);
    return secs;
  }
  s.pdb = std::move(opened).value();
  std::map<std::string, uint64_t> live;
  for (const auto& info : s.pdb->ListPartitions()) live[info.name] = info.live_rows;
  std::map<std::string, uint64_t> want;
  for (size_t p = 0; p < s.mirror.num_partitions(); ++p) {
    if (s.mirror.PartitionAlive(p, s.version)) {
      want[s.mirror.name(p)] = s.mirror.LiveRows(p, s.version);
    }
  }
  if (live != want) {
    ++out.failed;
    out.Problem("window_ingest: reopened partitions or live row counts differ "
                "from the acknowledged writes",
                true);
  }
  *recovered = 0;
  for (const auto& [name, stats] : s.pdb->Stats().per_partition) {
    *recovered += stats.recovered_records;
  }
  return secs;
}

}  // namespace

Outcome RunWindowIngest(const RunArgs& args) {
  Outcome out;
  int setup_index = 0;
  auto make = [&] {
    return MakeSetup(args.seed,
                     args.scratch_dir + "/data-" + std::to_string(setup_index++));
  };
  std::unique_ptr<Setup> s = SetUp<Setup>(out, args.trace ? 1 : kSetups, make);
  Tracer off(false);
  Pass plain;
  RunRounds(*s, args.seconds, 0, off, nullptr, plain, out);
  const double disk_mb =
      static_cast<double>(TreeBytes(s->options.data_dir)) / (1 << 20);
  uint64_t recovered = 0;
  const double recovery_s = Reopen(*s, out, &recovered);

  // Figures of the untraced pass (in a traced run, the reference for the
  // tracing overhead and the source of the end-to-end extras).
  out.Latencies("write", plain.write_ns);
  out.Set("compact_p50_ms", Median(plain.compact_ns) * 1e-6, "ms",
          plain.compact_ns.size());
  out.Set("disk_mb", disk_mb, "MiB", 1);
  out.Set("recovery_s", recovery_s, "s", 1);
  if (!args.trace) {
    out.Latencies("query", plain.query_ns);
    out.Set("ops_per_s", static_cast<double>(plain.ops) / plain.wall_s, "1/s",
            plain.ops);
    out.Set("pages_per_query",
            static_cast<double>(plain.prefix_pages) /
                static_cast<double>(plain.prefix_queries),
            "pages", plain.prefix_queries);
    out.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
    return out;
  }

  // Traced run: a fresh set-up replays the same rounds.
  s.reset();
  Outcome unused;
  s = SetUp<Setup>(unused, 1, make);
  Tracer tracer(true);
  Probes probes;
  Pass traced;
  const rankcube::ResultCacheStats cache_before = s->pdb->CacheStats();
  const uint64_t written_before = ProcWriteBytes();
  RunRounds(*s, 0.0, plain.rounds, tracer, &probes, traced, out);
  const uint64_t written = ProcWriteBytes() - written_before;
  const rankcube::ResultCacheStats cache_after = s->pdb->CacheStats();
  uint64_t traced_recovered = 0;
  (void)Reopen(*s, out, &traced_recovered);

  TraceOverhead(plain.query_ns, traced.query_ns, out);
  const double nq = static_cast<double>(std::max<uint64_t>(probes.queries, 1));
  out.Set("partition.queried_per_query", static_cast<double>(probes.queried) / nq,
          "partitions", probes.queries);
  out.Set("partition.pruned_by_predicate_per_query",
          static_cast<double>(probes.pruned_predicate) / nq, "partitions",
          probes.queries);
  out.Set("partition.pruned_by_bound_per_query",
          static_cast<double>(probes.pruned_bound) / nq, "partitions",
          probes.queries);
  out.Set("partition.useful_share",
          static_cast<double>(probes.useful) /
              static_cast<double>(std::max<uint64_t>(probes.queried, 1)),
          "share", probes.queried);
  std::vector<double> plan_ns = tracer.DurationsNs("pdb.explain_scatter");
  out.Set("partition.scatter_plan_us", Median(plan_ns) * 1e-3, "us",
          plan_ns.size());
  std::vector<double> create_ns = tracer.DurationsNs("pdb.create_partition");
  std::vector<double> drop_ns = tracer.DurationsNs("pdb.drop_partition");
  out.Set("partition.ddl_ms", (Mean(create_ns) + Mean(drop_ns)) * 1e-6, "ms",
          create_ns.size());
  CacheRates(cache_before, cache_after, out);
  out.Set("cache.invalidations_per_write",
          static_cast<double>(cache_after.invalidations - cache_before.invalidations) /
              static_cast<double>(std::max<uint64_t>(traced.inserts, 1)),
          "entries", traced.inserts);
  out.Set("engine.overlay_rows", Mean(probes.overlay_rows), "rows",
          probes.overlay_rows.size());
  out.Set("storage.wal_bytes_per_write", Mean(probes.wal_bytes), "bytes",
          probes.wal_bytes.size());
  out.Set("storage.bytes_written_per_user_byte",
          static_cast<double>(written) /
              (kUserRowBytes * static_cast<double>(std::max<uint64_t>(traced.inserts, 1))),
          "x", traced.inserts);
  out.Set("storage.compact_pages", Mean(probes.compact_pages), "pages",
          probes.compact_pages.size());
  out.Set("storage.recovered_records", static_cast<double>(traced_recovered),
          "records", 1);
  out.Set("gen.generate_s", s->generate_s, "s", 1);
  if (!WriteSpans(args.spans_path, {&tracer})) {
    std::fprintf(stderr, "window_ingest: cannot write spans\n");
  }
  return out;
}

}  // namespace rcbench
