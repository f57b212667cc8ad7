// Minimal blocking client for the rankcubed wire protocol.
//
//   auto client = RankCubeClient::Connect("127.0.0.1", port);
//   RC_RETURN_IF_ERROR(client.value().Hello("tenant-a").status());
//   WireQuerySpec spec;
//   spec.k = 10;
//   spec.order = "linear:1,2";
//   spec.where = {{0, 3}};
//   auto tuples = client.value().QueryTuples(spec);
//
// One request in flight per connection (the protocol is strictly
// request/response); concurrency comes from opening one client per worker,
// which is exactly how the server tests and rcbench drive load. Every
// call surfaces the server's typed wire code through Response::code, and
// transport-level failures (connection reset, truncated frame) come back as
// error Statuses — the two are deliberately distinct.
#ifndef RANKCUBE_SERVER_CLIENT_H_
#define RANKCUBE_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "func/query.h"  // ScoredTuple
#include "server/protocol.h"

namespace rankcube {

/// A QUERY/EXPLAIN request in wire terms (the client never needs the
/// engine-side TopKQuery types).
struct WireQuerySpec {
  int k = 10;
  std::string order;  ///< "kind:w0,w1[@t0,t1]" — see protocol.h grammar
  std::vector<std::pair<int32_t, int32_t>> where;  ///< (dim, value) pairs
  uint64_t budget = 0;       ///< requested page budget (0 = tenant default)
  uint64_t deadline_ms = 0;  ///< requested deadline (0 = tenant default)
  std::string engine;        ///< force a specific structure (tests/benches)

  /// The wire argument string ("k=10 order=linear:1,2 where=0:3 ...").
  std::string ToArgs() const;
};

/// Automatic-reconnect knobs. On a TRANSPORT failure (reset, refused,
/// truncated frame — never a typed server error) of an IDEMPOTENT verb, the
/// client redials with bounded exponential backoff + jitter, replays its
/// HELLO so the tenant binding survives, and retries the request.
/// Non-idempotent verbs (INSERT/DELETE/COMPACT) are NEVER auto-retried: the
/// original request may have committed before the connection died, and a
/// blind resend would double-apply it. They fail fast; the caller decides.
struct ReconnectPolicy {
  bool enabled = true;
  int max_attempts = 5;          ///< redial attempts per failed call
  uint32_t base_delay_ms = 10;   ///< first backoff step
  uint32_t max_delay_ms = 1000;  ///< backoff ceiling
  uint64_t jitter_seed = 1;      ///< deterministic jitter stream (tests)
};

class RankCubeClient {
 public:
  /// Opens a blocking TCP connection (IPv4). The host/port are remembered
  /// for automatic reconnects (see ReconnectPolicy).
  static Result<RankCubeClient> Connect(const std::string& host,
                                        uint16_t port);

  RankCubeClient(RankCubeClient&& o) noexcept
      : fd_(o.fd_),
        host_(std::move(o.host_)),
        port_(o.port_),
        tenant_(std::move(o.tenant_)),
        policy_(o.policy_),
        reconnects_(o.reconnects_),
        rng_(o.rng_) {
    o.fd_ = -1;
  }
  RankCubeClient& operator=(RankCubeClient&& o) noexcept;
  RankCubeClient(const RankCubeClient&) = delete;
  RankCubeClient& operator=(const RankCubeClient&) = delete;
  ~RankCubeClient();

  bool connected() const { return fd_ >= 0; }

  void set_reconnect_policy(ReconnectPolicy policy) { policy_ = policy; }
  const ReconnectPolicy& reconnect_policy() const { return policy_; }
  /// Successful automatic reconnects performed so far.
  uint64_t reconnects() const { return reconnects_; }

  /// Sends one request payload and reads one response frame. Transport
  /// failures return an error Status; server-side failures return a
  /// Response whose code is the typed wire error.
  Result<Response> Call(std::string_view payload);

  /// Sends one request frame WITHOUT waiting for the response — the
  /// fire-and-vanish half of the disconnect tests (follow with
  /// CloseAbruptly() to leave the server holding an orphaned query).
  Status Send(std::string_view payload);

  // --- verb helpers --------------------------------------------------------
  // Read-only verbs go through the reconnecting path; mutating verbs
  // (INSERT/DELETE/COMPACT) deliberately do not (see ReconnectPolicy).
  Result<Response> Ping() { return CallIdempotent("PING"); }
  /// Binds the connection's tenant; remembered so reconnects re-bind it.
  Result<Response> Hello(const std::string& tenant) {
    tenant_ = tenant;
    return CallIdempotent("HELLO tenant=" + tenant);
  }
  Result<Response> Query(const WireQuerySpec& spec) {
    return CallIdempotent("QUERY " + spec.ToArgs());
  }
  Result<Response> Explain(const WireQuerySpec& spec) {
    return CallIdempotent("EXPLAIN " + spec.ToArgs());
  }
  Result<Response> Insert(const std::vector<int32_t>& sel,
                          const std::vector<double>& rank);
  Result<Response> Delete(uint32_t tid) {
    return Call("DELETE tid=" + std::to_string(tid));
  }
  Result<Response> Compact() { return Call("COMPACT"); }
  Result<Response> Stats() { return CallIdempotent("STATS"); }

  // --- result cache --------------------------------------------------------
  // A server started with --cache_mb=0 answers these with the typed
  // NOT_SUPPORTED wire code (Response::code), not a transport error.
  /// "key=value" counter lines: hits, reuse_hits, misses, entries, bytes...
  Result<Response> CacheStats() { return CallIdempotent("CACHE op=stats"); }
  /// Drops every cached entry (idempotent, but mutates serving state — no
  /// auto-retry, matching the other mutating verbs).
  Result<Response> CacheClear() { return Call("CACHE op=clear"); }
  /// Adjusts the byte budget at runtime (0 disables; a resize can also
  /// re-enable a cache started at 0).
  Result<Response> CacheResize(uint64_t bytes) {
    return Call("CACHE op=resize bytes=" + std::to_string(bytes));
  }

  // --- partitioned servers (PARTITION_* verbs) -----------------------------
  // Create/Drop mutate and are never auto-retried; List/Stats reconnect.
  Result<Response> PartitionCreate(const std::string& name, int32_t lo,
                                   int32_t hi) {
    return Call("PARTITION_CREATE name=" + name + " lo=" + std::to_string(lo) +
                " hi=" + std::to_string(hi));
  }
  Result<Response> PartitionDrop(const std::string& name) {
    return Call("PARTITION_DROP name=" + name);
  }
  Result<Response> PartitionList() { return CallIdempotent("PARTITION_LIST"); }
  Result<Response> PartitionStats(const std::string& name) {
    return CallIdempotent("STATS partition=" + name);
  }
  /// Partitioned DELETE: tids are dense per partition.
  Result<Response> DeleteIn(const std::string& partition, uint32_t tid) {
    return Call("DELETE tid=" + std::to_string(tid) +
                " partition=" + partition);
  }

  /// Query() plus result decoding; a server-side error becomes an error
  /// Status carrying "<CODE>: <message>".
  Result<std::vector<ScoredTuple>> QueryTuples(const WireQuerySpec& spec);

  /// Severs the connection without protocol shutdown — simulates a client
  /// crashing mid-conversation (the disconnect-survival tests).
  void CloseAbruptly();

 private:
  RankCubeClient(int fd, std::string host, uint16_t port)
      : fd_(fd), host_(std::move(host)), port_(port) {}

  /// Call() with transport-failure retry: redial (+ HELLO replay) under the
  /// backoff policy, then resend. Only safe for idempotent payloads.
  Result<Response> CallIdempotent(const std::string& payload);
  /// Redials host_:port_ and replays HELLO; used by CallIdempotent.
  Status Reconnect();
  /// Backoff for redial `attempt` (1-based): exponential from base_delay_ms
  /// capped at max_delay_ms, with the upper half jittered.
  uint32_t BackoffMs(int attempt);

  int fd_ = -1;
  std::string host_;
  uint16_t port_ = 0;
  std::string tenant_;  ///< last HELLO, replayed after reconnect
  ReconnectPolicy policy_;
  uint64_t reconnects_ = 0;
  uint64_t rng_ = 0;  ///< jitter stream state (lazily seeded)
};

}  // namespace rankcube

#endif  // RANKCUBE_SERVER_CLIENT_H_
