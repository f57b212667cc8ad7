// dashboard_wire: a RankCubeServer on loopback inside the benchmark
// process, configured as rankcubed's defaults (generated relation shape,
// 4096-page buffer cache, default tenant quota) except that there is no
// simulated device latency and the result cache is smaller. The relation
// and its structures fit the buffer cache.
//
// Two connections for two tenants, each a closed loop, send a Zipf-skewed
// pool of dashboard tiles (exact repeats), +-1% re-weightings of those tiles
// (certified reuse) and an ad-hoc tail; connection A also sends one INSERT
// every kInsertEvery operations. Most answers come from the cache, so
// framing, parsing, dispatch and cache key/lookup costs dominate, and the
// inserts exercise epoch invalidation and the delta overlay. There is no
// compaction.
//
// The mirror holds every row connection A can insert up front, stamped
// with its insert number, so connection B can check an answer against the
// inserts acknowledged before its request and those sent before its reply
// without locking. Each connection draws a round's queries before the
// round's clock starts and checks its answers after the clock stops;
// ops_per_s sums each connection's operations over its own clocked time.
//
// Each connection's client thread and the server's thread for it share one
// CPU, A's the first the process may use and B's the second. A round trip
// then wakes a thread on the CPU it runs on: on a shared 4-vCPU VM,
// wake-ups across CPUs made the round trip and the throughput swing up to
// 1.8x from run to run.
#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_key.h"
#include "engine/query_builder.h"
#include "oracle.h"
#include "planner/rank_cube_db.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

namespace rcbench {
namespace {

using rankcube::RankCubeClient;
using rankcube::RankCubeDb;
using rankcube::RankCubeServer;
using rankcube::TopKQuery;
using rankcube::WireQuerySpec;

// rankcubed's default relation: 20000 rows, 3 selection dimensions of
// cardinality 20, 2 ranking dimensions.
constexpr uint64_t kRows = 20000;
constexpr int kSelDims = 3;
constexpr int32_t kCard = 20;
constexpr int kRankDims = 2;
constexpr size_t kBufferPages = 4096;                   // rankcubed default
/// Result cache. rankcubed's 64 MiB never fills in a run, so memory would
/// grow with every one-off entry, that is with the host's speed; 512 KiB
/// fills within the first seconds and still holds the tiles' entries
/// (about 150 KiB) several times over.
constexpr size_t kResultCacheBytes = size_t{512} << 10;
constexpr int kSetups = 5;
constexpr size_t kTiles = 128;
constexpr double kZipfTheta = 0.99;
/// Of every 20 queries a connection sends: 16 exact repeats of a tile, 3
/// +-1% re-weightings of a tile, 1 ad-hoc query.
constexpr int kRepeatsPer20 = 16;
constexpr int kReweightsPer20 = 3;
constexpr int kRoundOps = 1024;
constexpr int kInsertEvery = 1024;  // connection A only: one per round
/// Rows prepared for connection A's inserts (a run makes about a hundred);
/// an insert past them would count as a failed operation.
constexpr uint64_t kInsertRows = 4096;
constexpr int kSampleEvery = 16;  ///< brute-force every 16th answer

/// A top-k request in both forms: the wire spec the client sends and the
/// query the checker evaluates.
struct Request {
  WireQuerySpec spec;
  TopKQuery query;
};

struct Tile {
  std::vector<std::pair<int32_t, int32_t>> where;
  int k = 10;
  std::string kind;  ///< linear | dist | l1 | sqlinear
  std::vector<double> weights;
  std::vector<double> targets;
};

std::string Join(const std::vector<double>& v) {
  std::string s;
  char buf[40];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
    s += buf;
  }
  return s;
}

Request ToRequest(const Tile& t) {
  Request r;
  r.spec.k = t.k;
  r.spec.where = t.where;
  r.spec.order = t.kind + ":" + Join(t.weights);
  if (!t.targets.empty()) r.spec.order += "@" + Join(t.targets);
  rankcube::QueryBuilder qb;
  for (const auto& [d, v] : t.where) qb.Where(d, v);
  if (t.kind == "linear") {
    qb.OrderByLinear(t.weights);
  } else if (t.kind == "dist") {
    qb.OrderByDistance(t.weights, t.targets);
  } else if (t.kind == "l1") {
    qb.OrderByL1(t.weights, t.targets);
  } else {
    qb.OrderBy(std::make_shared<rankcube::SquaredLinear>(t.weights));
  }
  r.query = qb.Limit(t.k).Build();
  return r;
}

/// Tile number `slot`: its shape (predicate count, k, function kind) cycles
/// with the slot so every seed gets the same mix; predicate values and
/// function parameters come from `rng`.
Tile MakeTile(uint64_t slot, Rand& rng) {
  // 10 linear, 4 dist, 3 l1 and 3 sqlinear of every 20 slots.
  static const char* const kKinds[20] = {
      "linear", "dist",   "linear", "l1",       "linear", "sqlinear", "linear",
      "dist",   "linear", "l1",     "sqlinear", "linear", "dist",     "linear",
      "l1",     "linear", "sqlinear", "dist",   "linear", "linear"};
  static const int kK[] = {10, 20, 50};
  Tile t;
  int first = static_cast<int>(rng.Below(kSelDims));
  t.where.push_back({first, static_cast<int32_t>(rng.Below(kCard))});
  if (slot % 2 == 1) {
    int second = (first + 1 + static_cast<int>(rng.Below(kSelDims - 1))) % kSelDims;
    t.where.push_back({second, static_cast<int32_t>(rng.Below(kCard))});
  }
  t.k = kK[slot % 3];
  t.kind = kKinds[slot % 20];
  for (int d = 0; d < kRankDims; ++d) t.weights.push_back(rng.Uniform(0.2, 1.0));
  if (t.kind == "sqlinear") t.weights[1] = -t.weights[1];  // (a*x - b*y)^2
  if (t.kind == "dist" || t.kind == "l1") {
    for (int d = 0; d < kRankDims; ++d) t.targets.push_back(rng.Uniform01());
  }
  return t;
}

struct Client {
  std::unique_ptr<RankCubeClient> conn;
  pid_t server_thread = 0;  ///< the server's thread for this connection
  int cpu = -1;             ///< the CPU both threads run on, -1 for any
  bool writer = false;
  uint64_t ops = 0;  ///< operations issued so far (the stream position)
  Rand rng{0};
};

/// Thread ids of this process.
std::set<pid_t> Threads() {
  std::set<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') ids.insert(static_cast<pid_t>(std::atoi(e->d_name)));
    }
    closedir(dir);
  }
  return ids;
}

/// The first `n` CPUs this process may run on (all of them when fewer).
std::vector<int> AllowedCpus(size_t n) {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < n; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinThread(pid_t tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

struct Setup {
  Mirror mirror{kSelDims, kRankDims};
  std::unique_ptr<RankCubeDb> db;
  std::unique_ptr<RankCubeServer> server;
  Client clients[2];
  std::vector<Tile> tiles;
  ZipfSampler zipf{kTiles, kZipfTheta};
  std::atomic<uint64_t> sent{0};   ///< inserts sent by connection A
  std::atomic<uint64_t> acked{0};  ///< inserts acknowledged to A
  double generate_s = 0.0;
};

/// One client's view of a pass.
struct ClientPass {
  /// Time spent in the timed loops of the rounds, without drawing the
  /// rounds' queries or checking their answers.
  double busy_s = 0.0;
  std::vector<double> query_ns;
  std::vector<double> write_ns;
  std::vector<double> overhead_us;  ///< round trip minus the reply's time_ms
  std::vector<double> overlay_rows;
  std::vector<std::string> payloads;  ///< request bytes kept for parse_us
  std::vector<TopKQuery> queries;     ///< queries kept for key_us
  uint64_t attempted = 0, failed = 0;
  Outcome problems;
  int rounds = 0;
};

/// Parses "tuples=N engine=E pages=P time_ms=T" and the "<tid> <score>"
/// lines that follow.
bool ParseAnswer(const rankcube::Response& resp, std::vector<AnswerTuple>* out,
                 double* time_ms) {
  if (resp.lines.empty()) return false;
  size_t at = resp.lines[0].find("time_ms=");
  if (at == std::string::npos) return false;
  *time_ms = std::strtod(resp.lines[0].c_str() + at + 8, nullptr);
  out->clear();
  for (size_t i = 1; i < resp.lines.size(); ++i) {
    const char* p = resp.lines[i].c_str();
    char* end = nullptr;
    unsigned long tid = std::strtoul(p, &end, 10);
    if (end == p || *end != ' ') return false;
    double score = std::strtod(end + 1, nullptr);
    out->push_back({0, static_cast<uint32_t>(tid), score});
  }
  return true;
}

/// One query of a client's round: drawn before the round's clock starts,
/// sent while it runs, checked after it stops.
struct Sent {
  uint64_t op = 0;  ///< position in the client's stream
  Request req;
  uint64_t lo = 0, hi = 0;  ///< inserts acknowledged before, sent after
  double ns = 0.0;          ///< round trip
  rankcube::Result<rankcube::Response> resp = rankcube::Status::Internal("not sent");
};

/// Checks `answer` against the brute-force top-k score list of every state
/// the query may have seen: between the inserts acknowledged before it was
/// sent and those sent before its reply. Empty when one matches.
std::string BruteForceMismatch(const Mirror& mirror, const Sent& q,
                               const std::vector<AnswerTuple>& answer) {
  std::string why;
  for (uint64_t v = q.lo; v <= q.hi; ++v) {
    CheckResult r = CheckFull(mirror, q.req.query, answer, v,
                              BruteForceScores(mirror, q.req.query, v));
    if (r.verdict == Verdict::kOk) return "";
    why = r.why;
  }
  return why;
}

/// Runs whole rounds of one client's stream until `seconds` of clocked
/// time have passed (or exactly `rounds` rounds when positive).
void ClientLoop(Setup& s, int which, double seconds, int rounds,
                Tracer& tracer, ClientPass& pass) {
  Client& c = s.clients[which];
  // Client and server thread of a connection share one CPU, so the round
  // trip's wake-ups stay on it; the client thread's CPUs are restored at
  // the end.
  cpu_set_t saved;
  const bool pinned =
      c.cpu >= 0 && sched_getaffinity(0, sizeof(saved), &saved) == 0;
  if (pinned) {
    PinThread(static_cast<pid_t>(gettid()), c.cpu);
    PinThread(c.server_thread, c.cpu);
  }
  const int q_name = tracer.Name("client.query");
  const int w_name = tracer.Name("client.insert");
  auto is_insert = [&](uint64_t op) {
    return c.writer && op % kInsertEvery == kInsertEvery - 1;
  };
  std::vector<Sent> round;
  std::vector<AnswerTuple> answer;
  while (true) {
    round.clear();
    for (uint64_t op = c.ops; op < c.ops + kRoundOps; ++op) {
      if (is_insert(op)) continue;
      const uint64_t kind = op % 20;
      Tile tile;
      if (kind < kRepeatsPer20 + kReweightsPer20) {
        tile = s.tiles[s.zipf.Sample(c.rng)];
        if (kind >= kRepeatsPer20) {
          for (double& w : tile.weights) w *= 1.0 + c.rng.Uniform(-0.01, 0.01);
        }
      } else {
        tile = MakeTile(op / 20, c.rng);
      }
      round.push_back(Sent{op, ToRequest(tile)});
    }

    size_t next = 0;
    const int64_t round_start = NowNs();
    for (int i = 0; i < kRoundOps; ++i, ++c.ops) {
      ++pass.attempted;
      if (is_insert(c.ops)) {
        uint64_t n = s.sent.load();
        if (n >= kInsertRows) {
          pass.problems.Problem("dashboard_wire: insert rows exhausted", false);
          ++pass.failed;
          continue;
        }
        const uint32_t tid = static_cast<uint32_t>(kRows + n);
        std::vector<int32_t> sel(s.mirror.sel(0, tid), s.mirror.sel(0, tid) + kSelDims);
        std::vector<double> rank(s.mirror.rank(0, tid), s.mirror.rank(0, tid) + kRankDims);
        s.sent.store(n + 1);
        int64_t t0 = NowNs();
        int64_t span = tracer.Begin(w_name, c.ops);
        auto resp = c.conn->Insert(sel, rank);
        tracer.End(span);
        const double ns = static_cast<double>(NowNs() - t0);
        s.acked.store(n + 1);
        pass.write_ns.push_back(ns);
        if (!resp.ok() || !resp.value().ok() || resp.value().lines.empty() ||
            resp.value().lines[0] != "tid=" + std::to_string(tid)) {
          ++pass.failed;
          pass.problems.Problem("dashboard_wire: insert " + std::to_string(n) +
                                    " not acknowledged as tid " +
                                    std::to_string(tid),
                                true);
        }
        continue;
      }
      if (tracer.on() && c.ops % kSampleEvery == 0) {
        // Delta rows every engine overlays at this point (no compaction).
        uint64_t pending = 0;
        for (const auto& [name, f] : s.db->FreshnessByEngine()) {
          pending = std::max(pending, f.pending_inserts + f.pending_deletes);
        }
        pass.overlay_rows.push_back(static_cast<double>(pending));
      }
      Sent& q = round[next++];
      q.lo = s.acked.load();
      int64_t t0 = NowNs();
      int64_t span = tracer.Begin(q_name, c.ops);
      q.resp = c.conn->Query(q.req.spec);
      tracer.End(span);
      q.ns = static_cast<double>(NowNs() - t0);
      q.hi = s.sent.load();
      pass.query_ns.push_back(q.ns);
    }
    pass.busy_s += SecondsSince(round_start);

    for (const Sent& q : round) {
      double time_ms = 0.0;
      if (!q.resp.ok() || !q.resp.value().ok() ||
          !ParseAnswer(q.resp.value(), &answer, &time_ms)) {
        ++pass.failed;
        pass.problems.Problem(
            "dashboard_wire: " + q.req.spec.ToArgs() + ": " +
                (q.resp.ok() ? q.resp.value().message : q.resp.status().ToString()),
            false);
        continue;
      }
      CheckResult check = CheckAnswer(s.mirror, q.req.query, answer, q.hi);
      if (check.verdict != Verdict::kOk) {
        ++pass.failed;
        pass.problems.Problem("dashboard_wire: " + q.req.spec.ToArgs() + ": " +
                                  check.why,
                              check.verdict == Verdict::kWrong);
      }
      if (check.verdict == Verdict::kOk && q.op % kSampleEvery == 0) {
        std::string why = BruteForceMismatch(s.mirror, q, answer);
        if (!why.empty()) {
          ++pass.failed;
          pass.problems.Problem("dashboard_wire brute force: " +
                                    q.req.query.ToString() + ": " + why,
                                true);
        }
      }
      if (tracer.on()) {
        pass.overhead_us.push_back(q.ns * 1e-3 - time_ms * 1e3);
        if (pass.payloads.size() < 4096) {
          pass.payloads.push_back("QUERY " + q.req.spec.ToArgs());
          pass.queries.push_back(q.req.query);
        }
      }
    }
    ++pass.rounds;
    if (rounds > 0 ? pass.rounds >= rounds : pass.busy_s >= seconds) break;
  }
  if (pinned) (void)sched_setaffinity(0, sizeof(saved), &saved);
}

/// Both connections' closed loops, concurrently.
struct Pass {
  ClientPass client[2];
};

void RunPass(Setup& s, double seconds, const int rounds[2], Tracer* tracers[2],
             Pass& pass) {
  std::thread b([&] {
    ClientLoop(s, 1, seconds, rounds[1], *tracers[1], pass.client[1]);
  });
  ClientLoop(s, 0, seconds, rounds[0], *tracers[0], pass.client[0]);
  b.join();
}

std::unique_ptr<Setup> MakeSetup(uint64_t seed) {
  auto s = std::make_unique<Setup>();
  int64_t t0 = NowNs();
  Rand data(SubSeed(seed, 1));
  const size_t part = s->mirror.AddPartition("", 0);
  int32_t sel[kSelDims];
  double rank[kRankDims];
  // Base rows (version 0), then the rows A may insert: insert n is visible
  // from version n + 1, the version counting acknowledged inserts.
  for (uint64_t i = 0; i < kRows + kInsertRows; ++i) {
    for (int32_t& v : sel) v = static_cast<int32_t>(data.Below(kCard));
    for (double& x : rank) x = data.Uniform01();
    s->mirror.AddRow(part, sel, rank, i < kRows ? 0 : i - kRows + 1);
  }
  Rand tiles(SubSeed(seed, 3));
  for (size_t i = 0; i < kTiles; ++i) s->tiles.push_back(MakeTile(i, tiles));
  s->generate_s = SecondsSince(t0);

  rankcube::TableSchema schema;
  schema.sel_cardinality.assign(kSelDims, kCard);
  schema.num_rank_dims = kRankDims;
  rankcube::Table table(schema);
  for (uint32_t t = 0; t < kRows; ++t) {
    rankcube::Status st = table.AddRow(
        std::vector<int32_t>(s->mirror.sel(part, t), s->mirror.sel(part, t) + kSelDims),
        std::vector<double>(s->mirror.rank(part, t), s->mirror.rank(part, t) + kRankDims));
    if (!st.ok()) {
      std::fprintf(stderr, "dashboard_wire: load: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  RankCubeDb::Options o;
  o.store.cache_pages = kBufferPages;
  o.store.read_latency_us = 0;
  o.cache.max_bytes = kResultCacheBytes;
  s->db = std::make_unique<RankCubeDb>(std::move(table), o);
  // Every cataloged structure is built now, so the timed phase never builds.
  for (const std::string& e : s->db->Keys()) {
    auto built = s->db->Engine(e);
    if (!built.ok()) {
      std::fprintf(stderr, "dashboard_wire: build %s: %s\n", e.c_str(),
                   built.status().ToString().c_str());
      std::exit(1);
    }
  }
  RankCubeServer::Options so;
  so.host = "127.0.0.1";
  so.port = 0;
  so.default_quota = rankcube::TenantQuota{/*max_inflight=*/8, 0, 0};
  s->server = std::make_unique<RankCubeServer>(s->db.get(), so);
  rankcube::Status started = s->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "dashboard_wire: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  const std::vector<int> cpus = AllowedCpus(2);
  for (int i = 0; i < 2; ++i) {
    const std::set<pid_t> before = Threads();
    auto conn = RankCubeClient::Connect("127.0.0.1", s->server->port());
    if (!conn.ok()) {
      std::fprintf(stderr, "dashboard_wire: connect: %s\n",
                   conn.status().ToString().c_str());
      std::exit(1);
    }
    Client& c = s->clients[i];
    c.conn = std::make_unique<RankCubeClient>(std::move(conn).value());
    auto hello = c.conn->Hello(i == 0 ? "tenant-a" : "tenant-b");
    if (!hello.ok() || !hello.value().ok()) {
      std::fprintf(stderr, "dashboard_wire: HELLO failed\n");
      std::exit(1);
    }
    c.writer = i == 0;
    c.rng = Rand(SubSeed(seed, 10 + i));
    // The server's thread for this connection is the one thread that
    // appeared while it was opened and greeted.
    std::set<pid_t> added;
    for (pid_t t : Threads()) {
      if (before.count(t) == 0) added.insert(t);
    }
    if (added.size() == 1 && cpus.size() == 2) {
      c.server_thread = *added.begin();
      c.cpu = cpus[static_cast<size_t>(i)];
    } else {
      std::fprintf(stderr, "dashboard_wire: connection %d is not pinned\n", i);
    }
  }
  // Warm-up: every tile once, parsed from its request bytes as the server
  // parses them, so the timed phase starts with the tiles cached.
  for (const Tile& t : s->tiles) {
    auto req = rankcube::ParseRequest("QUERY " + ToRequest(t).spec.ToArgs());
    auto query = req.ok() ? rankcube::ParseWireQuery(req.value(), schema)
                          : rankcube::Result<TopKQuery>(req.status());
    if (!query.ok() || !s->db->Query(query.value()).ok()) {
      std::fprintf(stderr, "dashboard_wire: warm-up query failed\n");
      std::exit(1);
    }
  }
  return s;
}

/// Merges both clients' tallies into `out`.
void Settle(const Pass& pass, Outcome& out) {
  for (const ClientPass& c : pass.client) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    if (!c.problems.correct) out.correct = false;
    for (const std::string& p : c.problems.problems) out.Problem(p, false);
  }
}

std::vector<double> Concat(const Pass& p, std::vector<double> ClientPass::*field) {
  std::vector<double> all = p.client[0].*field;
  const std::vector<double>& b = p.client[1].*field;
  all.insert(all.end(), b.begin(), b.end());
  return all;
}

/// Mean microseconds per call of `fn` over `n` items, repeated until at
/// least 50 ms have been measured.
template <typename Fn>
double MeanUs(size_t n, Fn&& fn) {
  uint64_t calls = 0;
  int64_t t0 = NowNs();
  do {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += n;
  } while (NowNs() - t0 < 50'000'000);
  return static_cast<double>(NowNs() - t0) * 1e-3 / static_cast<double>(calls);
}

}  // namespace

Outcome RunDashboardWire(const RunArgs& args) {
  Outcome out;
  auto make = [&] { return MakeSetup(args.seed); };
  std::unique_ptr<Setup> s = SetUp<Setup>(out, args.trace ? 1 : kSetups, make);
  const rankcube::DbStats stats_before = s->db->Stats();
  Tracer off0(false), off1(false);
  Tracer* off[2] = {&off0, &off1};
  const int unbounded[2] = {0, 0};
  Pass plain;
  RunPass(*s, args.seconds, unbounded, off, plain);
  const rankcube::DbStats stats_after = s->db->Stats();
  if (stats_after.engines_built != stats_before.engines_built) {
    out.Problem("dashboard_wire: a structure was built during the timed phase",
                true);
  }
  Settle(plain, out);
  const double peak_rss_mb = PeakRssMb();  // before the report's copies
  std::vector<double> query_ns = Concat(plain, &ClientPass::query_ns);
  std::vector<double> write_ns = Concat(plain, &ClientPass::write_ns);
  const uint64_t ops = plain.client[0].attempted + plain.client[1].attempted;
  // Each connection's operations over its own busy time, summed.
  double ops_per_s = 0.0;
  for (const ClientPass& c : plain.client) {
    ops_per_s += static_cast<double>(c.attempted) / c.busy_s;
  }
  const uint64_t executed = stats_after.queries_executed - stats_before.queries_executed;
  if (!args.trace) {
    out.Latencies("query", query_ns);
    out.Latencies("write", write_ns);
    out.Set("ops_per_s", ops_per_s, "1/s", ops);
    out.Set("pages_per_query",
            static_cast<double>(stats_after.pages_charged - stats_before.pages_charged) /
                static_cast<double>(executed),
            "pages", executed);
    out.Set("peak_rss_mb", peak_rss_mb, "MiB", 1);
    return out;
  }
  // The write latency of the traced run comes from its untraced pass.
  out.Latencies("write", write_ns);

  // Traced run: a fresh set-up replays the same rounds on each connection.
  const int replay[2] = {plain.client[0].rounds, plain.client[1].rounds};
  s.reset();
  Outcome unused;
  s = SetUp<Setup>(unused, 1, make);
  Tracer t0(true), t1(true);
  Tracer* tracers[2] = {&t0, &t1};
  const rankcube::ResultCacheStats cache_before = s->db->CacheStats();
  const rankcube::DbStats before = s->db->Stats();
  const uint64_t acked_before = s->acked.load();
  Pass traced;
  RunPass(*s, 0.0, replay, tracers, traced);
  const rankcube::ResultCacheStats cache_after = s->db->CacheStats();
  const rankcube::DbStats after = s->db->Stats();
  const uint64_t writes = s->acked.load() - acked_before;
  Settle(traced, out);

  std::vector<double> rtt = t0.DurationsNs("client.query");
  std::vector<double> rtt_b = t1.DurationsNs("client.query");
  rtt.insert(rtt.end(), rtt_b.begin(), rtt_b.end());
  TraceOverhead(query_ns, Concat(traced, &ClientPass::query_ns), out);
  out.Set("server.rtt_p50_us", Median(rtt) * 1e-3, "us", rtt.size());
  std::vector<double> overhead = Concat(traced, &ClientPass::overhead_us);
  out.Set("server.overhead_p50_us", Median(overhead), "us", overhead.size());
  CacheRates(cache_before, cache_after, out);
  out.Set("cache.invalidations_per_write",
          static_cast<double>(cache_after.invalidations - cache_before.invalidations) /
              static_cast<double>(std::max<uint64_t>(writes, 1)),
          "entries", writes);
  std::vector<double> overlay = Concat(traced, &ClientPass::overlay_rows);
  out.Set("engine.overlay_rows", Mean(overlay), "rows", overlay.size());
  BufferHitRate(before, after, out);
  out.Set("gen.generate_s", s->generate_s, "s", 1);

  // Layer costs on the workload's own requests, measured in isolation.
  std::vector<std::string> payloads = traced.client[0].payloads;
  std::vector<TopKQuery> queries = traced.client[0].queries;
  for (size_t i = 0; i < traced.client[1].payloads.size(); ++i) {
    payloads.push_back(traced.client[1].payloads[i]);
    queries.push_back(traced.client[1].queries[i]);
  }
  std::vector<std::string> frames;
  for (const std::string& p : payloads) frames.push_back(rankcube::EncodeFrame(p));
  const rankcube::TableSchema& schema = s->db->table().schema();
  rankcube::FrameReader reader;
  std::string payload;
  out.Set("server.parse_us", MeanUs(frames.size(), [&](size_t i) {
            // One frame per read, as a connection receives requests.
            reader.Feed(frames[i].data(), frames[i].size());
            if (reader.Next(&payload).value()) {
              auto req = rankcube::ParseRequest(payload);
              if (req.ok()) (void)rankcube::ParseWireQuery(req.value(), schema);
            }
          }),
          "us", frames.size());
  out.Set("cache.key_us",
          MeanUs(queries.size(),
                 [&](size_t i) { (void)rankcube::CanonicalizeQuery(queries[i]); }),
          "us", queries.size());
  if (!WriteSpans(args.spans_path, {&t0, &t1})) {
    std::fprintf(stderr, "dashboard_wire: cannot write spans\n");
  }
  return out;
}

}  // namespace rcbench
