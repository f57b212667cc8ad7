// Serving-layer coverage: wire framing and parsing, the typed error
// contract, tenant admission (quota rejections under real concurrency —
// this test runs in the TSan CI job), and the server surviving abusive or
// vanishing clients. Everything network-facing runs against a live
// RankCubeServer on a loopback ephemeral port.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "planner/rank_cube_db.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace rankcube {
namespace {

// ---------------------------------------------------------------------------
// Protocol unit tests (no sockets).

TEST(ProtocolTest, FrameRoundTripSurvivesAnyFragmentation) {
  const std::string payload = "QUERY k=5 order=linear:1,2";
  std::string wire = EncodeFrame(payload) + EncodeFrame("PING") +
                     EncodeFrame("");  // empty frames are legal
  FrameReader reader;
  std::vector<std::string> decoded;
  // Worst case: one byte at a time.
  for (char c : wire) {
    reader.Feed(&c, 1);
    std::string out;
    while (true) {
      auto has = reader.Next(&out);
      ASSERT_TRUE(has.ok()) << has.status().ToString();
      if (!has.value()) break;
      decoded.push_back(out);
    }
  }
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], payload);
  EXPECT_EQ(decoded[1], "PING");
  EXPECT_EQ(decoded[2], "");
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ProtocolTest, OversizedFrameAnnouncementIsAnError) {
  FrameReader reader(/*max_frame_bytes=*/16);
  std::string wire = EncodeFrame(std::string(17, 'x'));
  reader.Feed(wire.data(), 4);  // header alone is enough to reject
  std::string out;
  auto has = reader.Next(&out);
  EXPECT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), Status::Code::kInvalidArgument);
}

TEST(ProtocolTest, ParseRequestUppercasesVerbAndSplitsArgs) {
  auto req = ParseRequest("query k=10 order=linear:1,2 where=0:3");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().verb, "QUERY");
  ASSERT_EQ(req.value().args.size(), 3u);
  ASSERT_NE(req.value().Find("order"), nullptr);
  EXPECT_EQ(*req.value().Find("order"), "linear:1,2");
  EXPECT_EQ(req.value().Find("nope"), nullptr);
}

TEST(ProtocolTest, ParseRequestRejectsMalformedInput) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("   ").ok());
  EXPECT_FALSE(ParseRequest("QUERY k").ok());       // no '='
  EXPECT_FALSE(ParseRequest("QUERY =value").ok());  // empty key
}

TEST(ProtocolTest, ResponseRoundTrip) {
  Response ok = Response::Ok();
  ok.lines = {"tuples=2", "7 0.5", "9 0.25"};
  auto parsed = Response::Parse(ok.Encode());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().ok());
  EXPECT_EQ(parsed.value().lines, ok.lines);

  Response err = Response::Error(WireCode::kQuotaExceeded,
                                 "tenant 'a' at its in-flight limit");
  auto parsed_err = Response::Parse(err.Encode());
  ASSERT_TRUE(parsed_err.ok());
  EXPECT_EQ(parsed_err.value().code, WireCode::kQuotaExceeded);
  EXPECT_EQ(parsed_err.value().message, err.message);
}

TEST(ProtocolTest, StatusMapsToTypedWireCodes) {
  EXPECT_EQ(WireCodeFromStatus(Status::OutOfRange("budget")),
            WireCode::kBudgetExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::DeadlineExceeded("slow")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::ResourceExhausted("quota")),
            WireCode::kQuotaExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::InvalidArgument("bad")),
            WireCode::kBadRequest);
  EXPECT_EQ(WireCodeFromName(WireCodeName(WireCode::kDeadlineExceeded)),
            WireCode::kDeadlineExceeded);
}

TEST(ProtocolTest, ParseWireQueryBuildsAndValidates) {
  TableSchema schema;
  schema.sel_cardinality = {5, 5, 5};
  schema.num_rank_dims = 2;

  auto req = ParseRequest("QUERY k=3 order=linear:1,2 where=0:4,2:1");
  ASSERT_TRUE(req.ok());
  auto query = ParseWireQuery(req.value(), schema);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().k, 3);
  ASSERT_EQ(query.value().predicates.size(), 2u);
  EXPECT_EQ(query.value().predicates[1].dim, 2);

  // Distance kinds need one target per weight.
  auto l1 = ParseRequest("QUERY order=l1:1,1@0.5,0.5");
  ASSERT_TRUE(l1.ok());
  EXPECT_TRUE(ParseWireQuery(l1.value(), schema).ok());
  auto bad_l1 = ParseRequest("QUERY order=l1:1,1@0.5");
  ASSERT_TRUE(bad_l1.ok());
  EXPECT_FALSE(ParseWireQuery(bad_l1.value(), schema).ok());

  // Validation failures: missing order, unknown kind, out-of-domain
  // predicate, wrong weight count.
  for (const char* bad :
       {"QUERY k=3", "QUERY order=cubic:1,2", "QUERY order=linear:1,2,3",
        "QUERY order=linear:1,2 where=9:1", "QUERY order=linear:1,2 k=0",
        "QUERY order=linear:1,2 where=0:banana"}) {
    SCOPED_TRACE(bad);
    auto r = ParseRequest(bad);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(ParseWireQuery(r.value(), schema).ok());
  }
}

// ---------------------------------------------------------------------------
// Admission unit tests (no sockets).

TEST(AdmissionTest, RejectsAtInflightLimitAndReleasesOnTicketDeath) {
  AdmissionController admission(TenantQuota{/*max_inflight=*/2, 0, 0});
  auto t1 = admission.Admit("a");
  auto t2 = admission.Admit("a");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto rejected = admission.Admit("a");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Status::Code::kResourceExhausted);
  // Other tenants are unaffected.
  EXPECT_TRUE(admission.Admit("b").ok());

  t1.value().set_ok(true);
  { auto dying = std::move(t1); }  // slot released here
  EXPECT_TRUE(admission.Admit("a").ok());

  auto snapshot = admission.Snapshot();
  EXPECT_EQ(snapshot["a"].admitted, 3u);
  EXPECT_EQ(snapshot["a"].rejected, 1u);
  EXPECT_EQ(snapshot["a"].completed, 1u);
}

TEST(AdmissionTest, ClampBoundsRequestsByTenantQuota) {
  AdmissionController admission;
  admission.SetQuota("a", TenantQuota{0, /*page_budget=*/100,
                                      /*deadline_ms=*/50});
  // Unspecified request inherits the caps; an over-ask is clamped down; a
  // smaller ask is honored.
  EXPECT_EQ(admission.Clamp("a", 0, 0), (std::pair<uint64_t, uint64_t>{100, 50}));
  EXPECT_EQ(admission.Clamp("a", 500, 500),
            (std::pair<uint64_t, uint64_t>{100, 50}));
  EXPECT_EQ(admission.Clamp("a", 10, 5),
            (std::pair<uint64_t, uint64_t>{10, 5}));
  // Unlimited tenant passes requests through.
  EXPECT_EQ(admission.Clamp("b", 7, 0), (std::pair<uint64_t, uint64_t>{7, 0}));
}

// ---------------------------------------------------------------------------
// End-to-end server tests.

class ServerTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kSlowPageUs = 500;

  void StartServer(RankCubeServer::Options options,
                   uint32_t latency_us = 0) {
    SyntheticSpec spec;
    spec.num_rows = 3000;
    spec.num_sel_dims = 3;
    spec.cardinality = 5;
    spec.num_rank_dims = 2;
    spec.seed = 99;
    RankCubeDb::Options db_options;
    db_options.store.cache_pages = 512;
    db_options.store.read_latency_us = latency_us;
    db_ = std::make_unique<RankCubeDb>(GenerateSynthetic(spec), db_options);
    server_ = std::make_unique<RankCubeServer>(db_.get(), options);
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  RankCubeClient Connect() {
    auto client = RankCubeClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<RankCubeDb> db_;
  std::unique_ptr<RankCubeServer> server_;
};

TEST_F(ServerTest, ServesQueriesMatchingDirectExecution) {
  StartServer({});
  RankCubeClient client = Connect();
  ASSERT_TRUE(client.Ping().ok());

  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,2";
  spec.where = {{0, 3}};
  auto tuples = client.QueryTuples(spec);
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  ASSERT_EQ(tuples.value().size(), 5u);

  // The wire answer is byte-identical to asking the db directly.
  TopKQuery query;
  query.k = 5;
  query.function = std::make_shared<LinearFunction>(std::vector<double>{1, 2});
  query.predicates.push_back({0, 3});
  auto direct = db_->Query(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(tuples.value(), direct.value().tuples);
}

TEST_F(ServerTest, ExplainInsertDeleteCompactStatsRoundTrip) {
  StartServer({});
  RankCubeClient client = Connect();

  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,1";
  auto explain = client.Explain(spec);
  ASSERT_TRUE(explain.ok());
  ASSERT_TRUE(explain.value().ok()) << explain.value().message;
  ASSERT_FALSE(explain.value().lines.empty());
  EXPECT_EQ(explain.value().lines[0].rfind("plan: ", 0), 0u);

  auto insert = client.Insert({1, 2, 3}, {0.9, 0.1});
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(insert.value().ok()) << insert.value().message;
  ASSERT_EQ(insert.value().lines.size(), 1u);
  EXPECT_EQ(insert.value().lines[0], "tid=3000");

  auto del = client.Delete(3000);
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(del.value().ok()) << del.value().message;
  // Deleting a tombstoned tid is a typed error, not a hang-up.
  auto again = client.Delete(3000);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().ok());

  auto compact = client.Compact();
  ASSERT_TRUE(compact.ok());
  ASSERT_TRUE(compact.value().ok()) << compact.value().message;

  // One executed query materializes the "default" tenant in the
  // admission snapshot STATS reports.
  auto query = client.Query(spec);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(query.value().ok()) << query.value().message;

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().ok());
  bool saw_rows = false;
  bool saw_tenant = false;
  for (const std::string& line : stats.value().lines) {
    if (line == "rows=3001") saw_rows = true;
    if (line.rfind("tenant.default.", 0) == 0) saw_tenant = true;
  }
  EXPECT_TRUE(saw_rows);
  EXPECT_TRUE(saw_tenant);
}

TEST_F(ServerTest, MalformedRequestsGetTypedErrorsNotDisconnects) {
  StartServer({});
  RankCubeClient client = Connect();
  for (const char* bad :
       {"", "FROBNICATE", "QUERY k", "QUERY order=cubic:1,2",
        "QUERY order=linear:1,2 where=0:banana", "DELETE tid=-1",
        "INSERT sel=1,2,3"}) {
    SCOPED_TRACE(std::string("payload: '") + bad + "'");
    auto resp = client.Call(bad);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp.value().code, WireCode::kBadRequest)
        << resp.value().message;
  }
  // The connection is still healthy after every rejection.
  auto ping = client.Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok());
}

TEST_F(ServerTest, OversizedFrameIsRejectedThenDisconnected) {
  RankCubeServer::Options options;
  options.max_frame_bytes = 64;
  StartServer(options);
  RankCubeClient client = Connect();

  auto resp = client.Call(std::string(65, 'x'));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp.value().code, WireCode::kTooLarge);
  // The server hangs up after the error (it cannot resync the stream) — a
  // reconnect-disabled client observes the raw disconnect.
  ReconnectPolicy no_retry;
  no_retry.enabled = false;
  client.set_reconnect_policy(no_retry);
  auto after = client.Ping();
  EXPECT_FALSE(after.ok());

  // And the server is still serving new connections.
  RankCubeClient fresh = Connect();
  ASSERT_TRUE(fresh.Ping().ok());
  EXPECT_EQ(server_->counters().protocol_errors, 1u);
}

TEST_F(ServerTest, BudgetAndDeadlineProduceDistinctWireCodes) {
  RankCubeServer::Options options;
  options.tenant_quotas["tight"] = TenantQuota{0, /*page_budget=*/1, 0};
  options.tenant_quotas["slow"] = TenantQuota{0, 0, /*deadline_ms=*/1};
  StartServer(options, kSlowPageUs);

  WireQuerySpec scan;
  scan.k = 5;
  scan.order = "linear:1,2";
  scan.engine = "table_scan";  // unconditionally many pages

  RankCubeClient tight = Connect();
  ASSERT_TRUE(tight.Hello("tight").ok());
  auto budget = tight.Query(scan);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget.value().code, WireCode::kBudgetExceeded)
      << budget.value().message;

  RankCubeClient slow = Connect();
  ASSERT_TRUE(slow.Hello("slow").ok());
  auto deadline = slow.Query(scan);
  ASSERT_TRUE(deadline.ok());
  EXPECT_EQ(deadline.value().code, WireCode::kDeadlineExceeded)
      << deadline.value().message;

  // A request asking beyond its tenant cap is clamped, not honored.
  WireQuerySpec greedy = scan;
  greedy.budget = 1000000;
  auto clamped = tight.Query(greedy);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value().code, WireCode::kBudgetExceeded);
}

TEST_F(ServerTest, ConcurrentTenantsHitInflightQuotaWithTypedRejections) {
  RankCubeServer::Options options;
  options.tenant_quotas["a"] = TenantQuota{/*max_inflight=*/1, 0, 0};
  options.tenant_quotas["b"] = TenantQuota{/*max_inflight=*/4, 0, 0};
  StartServer(options, kSlowPageUs);  // slow pages keep queries in flight

  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,2";
  spec.engine = "table_scan";

  constexpr int kThreadsPerTenant = 4;
  constexpr int kRequests = 6;
  std::atomic<int> a_ok{0}, a_rejected{0}, b_ok{0}, b_rejected{0};
  std::vector<std::thread> threads;
  for (const char* tenant : {"a", "b"}) {
    for (int t = 0; t < kThreadsPerTenant; ++t) {
      threads.emplace_back([&, tenant] {
        auto client =
            RankCubeClient::Connect("127.0.0.1", server_->port());
        ASSERT_TRUE(client.ok());
        ASSERT_TRUE(client.value().Hello(tenant).ok());
        for (int i = 0; i < kRequests; ++i) {
          auto resp = client.value().Query(spec);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          std::atomic<int>& ok = *tenant == 'a' ? a_ok : b_ok;
          std::atomic<int>& rej = *tenant == 'a' ? a_rejected : b_rejected;
          if (resp.value().ok()) {
            ++ok;
          } else {
            ASSERT_EQ(resp.value().code, WireCode::kQuotaExceeded)
                << resp.value().message;
            ++rej;
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();

  // Every request got a definite answer...
  EXPECT_EQ(a_ok + a_rejected, kThreadsPerTenant * kRequests);
  EXPECT_EQ(b_ok + b_rejected, kThreadsPerTenant * kRequests);
  // ...tenant "a" (1 slot, 4 connections) was actually throttled, and both
  // tenants still made progress.
  EXPECT_GT(a_ok.load(), 0);
  EXPECT_GT(a_rejected.load(), 0);
  EXPECT_GT(b_ok.load(), 0);

  auto snapshot = server_->admission().Snapshot();
  EXPECT_EQ(snapshot["a"].inflight, 0u);
  EXPECT_EQ(snapshot["b"].inflight, 0u);
  EXPECT_EQ(snapshot["a"].rejected,
            static_cast<uint64_t>(a_rejected.load()));
}

/// One connection's request stream: top-k queries with random weights and
/// 0-2 predicates on distinct dims, and `write_pct`% writes (an INSERT, or
/// one time in four a DELETE of a tid this stream inserted).
class MixedRequests {
 public:
  MixedRequests(const TableSchema& schema, int write_pct, uint64_t seed)
      : schema_(schema), write_pct_(write_pct), rng_(seed) {}

  Result<Response> Issue(RankCubeClient& client) {
    if (static_cast<int>(rng_() % 100) < write_pct_) return IssueWrite(client);
    WireQuerySpec spec;
    spec.k = 10;
    spec.order = "linear:";
    for (int d = 0; d < schema_.num_rank_dims; ++d) {
      if (d > 0) spec.order += ',';
      spec.order += std::to_string(1 + rng_() % 4);
    }
    const int npreds = static_cast<int>(rng_() % 3);
    int32_t dim = static_cast<int32_t>(rng_() % schema_.num_sel_dims());
    for (int i = 0; i < npreds; ++i) {
      spec.where.emplace_back(
          dim, static_cast<int32_t>(rng_() % schema_.sel_cardinality[dim]));
      dim = (dim + 1) % schema_.num_sel_dims();
    }
    return client.Query(spec);
  }

 private:
  Result<Response> IssueWrite(RankCubeClient& client) {
    if (!inserted_.empty() && rng_() % 4 == 0) {
      // Swap-remove: a tid is deleted at most once, and only by its stream.
      size_t idx = rng_() % inserted_.size();
      uint32_t tid = inserted_[idx];
      inserted_[idx] = inserted_.back();
      inserted_.pop_back();
      return client.Delete(tid);
    }
    std::vector<int32_t> sel(schema_.num_sel_dims());
    for (int d = 0; d < schema_.num_sel_dims(); ++d) {
      sel[d] = static_cast<int32_t>(rng_() % schema_.sel_cardinality[d]);
    }
    std::vector<double> rank(schema_.num_rank_dims);
    for (double& r : rank) r = static_cast<double>(rng_() % 1000) / 1000.0;
    Result<Response> resp = client.Insert(sel, rank);
    if (resp.ok() && resp.value().ok() && !resp.value().lines.empty() &&
        resp.value().lines[0].rfind("tid=", 0) == 0) {
      inserted_.push_back(static_cast<uint32_t>(
          std::strtoul(resp.value().lines[0].c_str() + 4, nullptr, 10)));
    }
    return resp;
  }

  TableSchema schema_;
  int write_pct_;
  std::mt19937_64 rng_;
  std::vector<uint32_t> inserted_;
};

struct LoadOutcome {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> other_codes{0};  ///< neither OK nor a typed rejection
  std::atomic<uint64_t> transport_errors{0};
};

/// Drives `port` for 500 ms from 4 tenants x 4 connections, connection w
/// seeded `seed` + w: a closed loop when `qps` is 0 (each connection
/// re-issues on reply), else arrivals on one global `qps` schedule.
void RunMixedLoad(uint16_t port, const TableSchema& schema, uint64_t seed,
                  int qps, LoadOutcome* out) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto end = start + std::chrono::milliseconds(500);
  std::atomic<uint64_t> next_arrival{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 16; ++w) {
    workers.emplace_back([&, w] {
      auto client = RankCubeClient::Connect("127.0.0.1", port);
      if (!client.ok() ||
          !client.value().Hello("t" + std::to_string(w % 4)).ok()) {
        ++out->transport_errors;
        return;
      }
      MixedRequests gen(schema, /*write_pct=*/10, seed + w);
      while (true) {
        if (qps > 0) {
          auto arrival = start + std::chrono::nanoseconds(static_cast<int64_t>(
                                     next_arrival++ * 1e9 / qps));
          if (arrival >= end) break;
          std::this_thread::sleep_until(arrival);
        } else if (Clock::now() >= end) {
          break;
        }
        Result<Response> resp = gen.Issue(client.value());
        if (!resp.ok()) {
          ++out->transport_errors;
          return;
        }
        switch (resp.value().code) {
          case WireCode::kOk:
            ++out->ok;
            break;
          case WireCode::kQuotaExceeded:
          case WireCode::kBudgetExceeded:
          case WireCode::kDeadlineExceeded:
            break;
          default:
            ++out->other_codes;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

// Mixed multi-tenant load with 10% writes: four connections per tenant
// against an in-flight quota of two drive admission control, and device
// pages cost 20 us. Both loops must make progress, and every reply that is
// not OK must be a typed quota, budget or deadline rejection.
TEST(ServerLoadTest, MixedTenantLoadGetsOnlyTypedOutcomes) {
  SyntheticSpec spec;
  spec.num_rows = 4000;
  spec.num_sel_dims = 3;
  spec.cardinality = 8;
  spec.num_rank_dims = 2;
  spec.seed = 7;
  RankCubeDb::Options db_options;
  db_options.store.cache_pages = 4096;
  db_options.store.read_latency_us = 20;
  RankCubeDb db(GenerateSynthetic(spec), db_options);
  RankCubeServer::Options options;
  for (int t = 0; t < 4; ++t) {
    options.tenant_quotas["t" + std::to_string(t)] =
        TenantQuota{/*max_inflight=*/2, 0, 0};
  }
  RankCubeServer server(&db, options);
  ASSERT_TRUE(server.Start().ok());
  const TableSchema schema = db.table().schema();

  {
    // Warm the routed engines so neither loop starts on lazy builds.
    auto warm = RankCubeClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    MixedRequests reads(schema, /*write_pct=*/0, 1);
    for (int i = 0; i < 10; ++i) (void)reads.Issue(warm.value());
  }

  for (int qps : {0, 500}) {
    SCOPED_TRACE(qps == 0 ? "closed loop" : "open loop at 500/s");
    LoadOutcome out;
    RunMixedLoad(server.port(), schema, qps == 0 ? 1000 : 2000, qps, &out);
    EXPECT_GT(out.ok.load(), 0u);
    EXPECT_EQ(out.transport_errors.load(), 0u);
    EXPECT_EQ(out.other_codes.load(), 0u);
  }
}

TEST_F(ServerTest, SurvivesClientDisconnectMidQuery) {
  StartServer({}, kSlowPageUs);
  for (int i = 0; i < 3; ++i) {
    RankCubeClient client = Connect();
    ASSERT_TRUE(client.Ping().ok());
    // Fire a slow full scan and vanish before the response arrives: the
    // server's send hits a dead socket mid-query and must shrug it off
    // (MSG_NOSIGNAL, RAII ticket/lock unwinding).
    ASSERT_TRUE(
        client.Send("QUERY k=5 order=linear:1,2 engine=table_scan").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    client.CloseAbruptly();
  }
  // Server is alive and the writer path still works end to end.
  RankCubeClient fresh = Connect();
  auto insert = fresh.Insert({1, 1, 1}, {0.5, 0.5});
  ASSERT_TRUE(insert.ok());
  EXPECT_TRUE(insert.value().ok());
  auto stats = fresh.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().ok());
}

TEST_F(ServerTest, StopUnblocksIdleConnections) {
  StartServer({});
  RankCubeClient client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();  // must join the idle connection's thread promptly
  EXPECT_FALSE(server_->running());
  auto after = client.Ping();
  EXPECT_FALSE(after.ok());
}

TEST_F(ServerTest, PortZeroBindsEphemeralAndIsReadBack) {
  RankCubeServer::Options options;
  options.port = 0;  // the OS picks; port() must report the real one
  StartServer(options);
  ASSERT_NE(server_->port(), 0);
  auto client = RankCubeClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto ping = client.value().Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok());
}

TEST_F(ServerTest, IdempotentVerbsReconnectAfterHangupAndReplayHello) {
  // An oversized frame makes the server hang up on us — a deterministic
  // server-side disconnect. The next idempotent verb must redial, replay
  // the HELLO tenant binding, and succeed without the caller noticing.
  RankCubeServer::Options options;
  options.max_frame_bytes = 64;
  StartServer(options);
  RankCubeClient client = Connect();
  ReconnectPolicy fast;
  fast.base_delay_ms = 1;
  fast.max_delay_ms = 4;
  client.set_reconnect_policy(fast);
  ASSERT_TRUE(client.Hello("tenant-r").ok());

  for (uint64_t round = 1; round <= 2; ++round) {
    auto resp = client.Call(std::string(65, 'x'));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().code, WireCode::kTooLarge);

    WireQuerySpec spec;
    spec.k = 3;
    spec.order = "linear:1,2";
    auto query = client.Query(spec);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    EXPECT_TRUE(query.value().ok()) << query.value().message;
    EXPECT_EQ(client.reconnects(), round);
  }
  // The replayed HELLO kept the tenant binding: the admission controller
  // accounted this traffic to "tenant-r", not the default tenant.
  auto snapshot = server_->admission().Snapshot();
  EXPECT_GT(snapshot["tenant-r"].admitted, 0u);
}

TEST_F(ServerTest, MutatingVerbsAreNeverAutoRetried) {
  StartServer({});
  RankCubeClient client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  // Sever the transport: an idempotent verb would transparently redial
  // here, but INSERT must fail fast — the original may have committed, and
  // a blind resend would double-apply it.
  client.CloseAbruptly();
  auto insert = client.Insert({1, 1, 1}, {0.5, 0.5});
  EXPECT_FALSE(insert.ok());
  auto del = client.Delete(0);
  EXPECT_FALSE(del.ok());
  EXPECT_EQ(client.reconnects(), 0u);
  // The same client then recovers via the next idempotent verb.
  auto ping = client.Ping();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping.value().ok());
  EXPECT_EQ(client.reconnects(), 1u);
}

// RankCubeDb::Stats consistency through the server-independent API.
TEST(DbStatsTest, SnapshotReflectsWritesQueriesAndCompaction) {
  SyntheticSpec spec;
  spec.num_rows = 2000;
  spec.num_sel_dims = 3;
  spec.cardinality = 5;
  spec.num_rank_dims = 2;
  spec.seed = 7;
  RankCubeDb::Options options;
  options.store.cache_pages = 256;
  RankCubeDb db(GenerateSynthetic(spec), options);

  DbStats before = db.Stats();
  EXPECT_EQ(before.rows, 2000u);
  EXPECT_EQ(before.live_rows, 2000u);
  EXPECT_EQ(before.queries_executed, 0u);
  EXPECT_EQ(before.engines_built, 0u);

  auto tid = db.Insert({1, 2, 3}, {0.4, 0.6});
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db.Delete(0).ok());

  TopKQuery query;
  query.k = 5;
  query.function = std::make_shared<LinearFunction>(std::vector<double>{1, 1});
  ASSERT_TRUE(db.Query(query).ok());
  QueryOptions bad;
  bad.page_budget = 1;
  bad.force_engine = "table_scan";
  EXPECT_FALSE(db.Query(query, bad).ok());

  DbStats mid = db.Stats();
  EXPECT_EQ(mid.rows, 2001u);
  EXPECT_EQ(mid.live_rows, 2000u);
  EXPECT_EQ(mid.pending_inserts, 1u);
  EXPECT_EQ(mid.pending_deletes, 1u);
  EXPECT_EQ(mid.queries_executed, 2u);
  EXPECT_EQ(mid.query_failures, 1u);
  EXPECT_GT(mid.pages_logical, 0u);
  EXPECT_GE(mid.engines_built, 1u);
  EXPECT_GE(mid.cache_hit_rate, 0.0);
  EXPECT_LE(mid.cache_hit_rate, 1.0);
  // ToString carries one key=value line per scalar field.
  EXPECT_NE(mid.ToString().find("rows=2001"), std::string::npos);
  EXPECT_NE(mid.ToString().find("queries_executed=2"), std::string::npos);

  ASSERT_TRUE(db.Compact().ok());
  DbStats after = db.Stats();
  EXPECT_EQ(after.pending_inserts, 0u);
  EXPECT_EQ(after.pending_deletes, 0u);
  EXPECT_EQ(after.epoch, after.compacted_epoch);
  for (const auto& [name, freshness] : after.freshness) {
    EXPECT_TRUE(freshness.fresh()) << name;
  }
}

// ---------------------------------------------------------------------------
// STATS and CACHE key sets, in both server modes.

std::map<std::string, std::string> KeyValues(const Response& resp) {
  std::map<std::string, std::string> out;
  for (const std::string& line : resp.lines) {
    size_t eq = line.find('=');
    if (eq != std::string::npos) out[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return out;
}

/// Runs one query twice (a miss, then an exact hit) and checks that STATS
/// prints every key of `stats_keys`, that CACHE prints every counter, and
/// that each result-cache counter STATS prints under `cache_` equals the
/// CACHE verb's value.
void ExpectStatsAndCacheKeys(uint16_t port,
                             std::vector<std::string> stats_keys) {
  for (const char* key :
       {"server.connections_accepted", "server.connections_active",
        "server.requests", "server.request_errors", "server.protocol_errors",
        "tenant.default.inflight", "tenant.default.admitted",
        "tenant.default.rejected", "tenant.default.completed",
        "tenant.default.failed"}) {
    stats_keys.push_back(key);
  }
  auto client = RankCubeClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,2";
  spec.where = {{0, 3}};
  for (int i = 0; i < 2; ++i) {
    auto tuples = client.value().QueryTuples(spec);
    ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  }
  auto stats = client.value().Stats();
  auto cache = client.value().CacheStats();
  ASSERT_TRUE(stats.ok() && stats.value().ok());
  ASSERT_TRUE(cache.ok() && cache.value().ok());
  std::map<std::string, std::string> s = KeyValues(stats.value());
  std::map<std::string, std::string> c = KeyValues(cache.value());
  for (const std::string& key : stats_keys) EXPECT_EQ(s.count(key), 1u) << key;
  for (const char* key : {"hits", "reuse_hits", "misses", "insertions",
                          "invalidations", "evictions", "entries", "bytes",
                          "max_bytes"}) {
    EXPECT_EQ(c.count(key), 1u) << key;
  }
  EXPECT_EQ(c["hits"], "1");
  EXPECT_EQ(c["misses"], "1");
  for (const auto& [key, value] : c) {
    auto printed = s.find("cache_" + key);
    if (printed != s.end()) {
      EXPECT_EQ(printed->second, value) << key;
    }
  }
}

TEST(StatsKeysTest, BothServerModesPrintEveryCacheCounter) {
  const std::vector<std::string> db_keys = {
      "rows", "live_rows", "epoch", "compacted_epoch", "pending_inserts",
      "pending_deletes", "engines_cataloged", "engines_built",
      "construction_pages", "queries_executed", "query_failures",
      "pages_logical", "pages_charged", "pages_device", "cache_hit_rate",
      "cache_hits", "cache_reuse_hits", "cache_misses", "cache_entries",
      "cache_bytes", "cache_max_bytes", "cache_evictions",
      "cache_invalidations", "durable", "read_only"};
  SyntheticSpec spec;
  spec.num_rows = 2000;
  spec.num_sel_dims = 3;
  spec.cardinality = 5;
  spec.num_rank_dims = 2;
  spec.seed = 99;
  RankCubeDb::Options db_options;
  db_options.cache.max_bytes = 1 << 20;
  RankCubeDb db(GenerateSynthetic(spec), db_options);
  RankCubeServer server(&db, RankCubeServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  {
    SCOPED_TRACE("single db");
    ExpectStatsAndCacheKeys(server.port(), db_keys);
  }

  PartitionedDb::Options popts;
  popts.schema = db.table().schema();
  popts.partition_dim = 0;
  popts.cache.max_bytes = 1 << 20;
  auto pdb = PartitionedDb::Open(std::move(popts));
  ASSERT_TRUE(pdb.ok()) << pdb.status().ToString();
  ASSERT_TRUE(pdb.value()->CreatePartition("p", {0, 5}, GenerateSynthetic(spec))
                  .ok());
  RankCubeServer partitioned(pdb.value().get(), RankCubeServer::Options{});
  ASSERT_TRUE(partitioned.Start().ok());
  std::vector<std::string> keys = {
      "partitions", "rows", "live_rows", "durable", "scatter.queries_executed",
      "scatter.query_failures", "scatter.partitions_queried",
      "scatter.partitions_pruned", "cache_hits", "cache_misses",
      "cache_entries", "cache_bytes", "cache_max_bytes", "cache_evictions",
      "cache_invalidations", "partition.p.range"};
  for (const std::string& key : db_keys) keys.push_back("partition.p." + key);
  SCOPED_TRACE("partitioned db");
  ExpectStatsAndCacheKeys(partitioned.port(), keys);
}

}  // namespace
}  // namespace rankcube
