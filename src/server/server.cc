#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace rankcube {

namespace {

/// Splits a multi-line string into Response payload lines.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find('\n', start);
    if (pos == std::string::npos) pos = text.size();
    if (pos > start || pos < text.size()) out.emplace_back(text, start, pos - start);
    start = pos + 1;
  }
  return out;
}

/// Writes the full framed response; false when the peer is gone. Uses
/// MSG_NOSIGNAL so a client that disconnected mid-query yields EPIPE here
/// instead of killing the process with SIGPIPE.
bool SendFrame(int fd, const std::string& payload) {
  std::string wire = EncodeFrame(payload);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

RankCubeServer::RankCubeServer(RankCubeDb* db, Options options)
    : db_(db),
      options_(std::move(options)),
      admission_(options_.default_quota) {
  for (const auto& [tenant, quota] : options_.tenant_quotas) {
    admission_.SetQuota(tenant, quota);
  }
}

RankCubeServer::RankCubeServer(PartitionedDb* db, Options options)
    : pdb_(db),
      options_(std::move(options)),
      admission_(options_.default_quota) {
  for (const auto& [tenant, quota] : options_.tenant_quotas) {
    admission_.SetQuota(tenant, quota);
  }
}

RankCubeServer::~RankCubeServer() { Stop(); }

Status RankCubeServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("cannot parse host '" + options_.host +
                                   "' as an IPv4 address");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::Internal("bind(" + options_.host + ":" +
                                std::to_string(options_.port) +
                                "): " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    Status s =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&RankCubeServer::AcceptLoop, this);
  return Status::OK();
}

void RankCubeServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Wake every connection thread blocked in recv(); fds stay open (the
    // reap below closes them after the join, so a number is never reused
    // while a thread still references it).
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  ReapConnections(/*all=*/true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

RankCubeServer::Counters RankCubeServer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void RankCubeServer::ReapConnections(bool all) {
  std::vector<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || it->second->done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : dead) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void RankCubeServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    int n = ::poll(&p, 1, /*timeout_ms=*/100);
    ReapConnections(/*all=*/false);
    if (stop_.load(std::memory_order_acquire)) break;
    if (n <= 0 || (p.revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    ++counters_.connections_accepted;
    ++counters_.connections_active;
    raw->thread = std::thread(&RankCubeServer::ServeConnection, this, id, fd);
  }
}

void RankCubeServer::ServeConnection(uint64_t conn_id, int fd) {
  ServerSession session;
  session.id = conn_id;
  FrameReader reader(options_.max_frame_bytes);
  char buf[4096];
  bool alive = true;
  while (alive && !stop_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed (possibly mid-request) or Stop() shut us down
    }
    reader.Feed(buf, static_cast<size_t>(n));
    std::string payload;
    while (alive) {
      Result<bool> has = reader.Next(&payload);
      if (!has.ok()) {
        // Oversized frame announcement: the stream cannot be resynced, so
        // answer with the typed error and hang up.
        SendFrame(fd, Response::Error(WireCode::kTooLarge,
                                      has.status().message())
                          .Encode());
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.protocol_errors;
        alive = false;
        break;
      }
      if (!has.value()) break;
      Response resp = Dispatch(payload, session);
      ++session.requests;
      if (!resp.ok()) ++session.errors;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.requests;
        if (!resp.ok()) ++counters_.request_errors;
      }
      if (!SendFrame(fd, resp.Encode())) {
        alive = false;  // client went away; its admission slot is already
                        // released (ticket died with DoQuery)
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --counters_.connections_active;
  }
  Connection* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) conn = it->second.get();
  }
  if (conn != nullptr) conn->done.store(true, std::memory_order_release);
}

Response RankCubeServer::Dispatch(std::string_view payload,
                                  ServerSession& session) {
  Result<Request> parsed = ParseRequest(payload);
  if (!parsed.ok()) return Response::FromStatus(parsed.status());
  const Request& req = parsed.value();

  if (req.verb == "PING") {
    Response resp;
    resp.lines.push_back("pong");
    return resp;
  }
  if (req.verb == "HELLO") {
    if (const std::string* tenant = req.Find("tenant")) {
      if (tenant->empty()) {
        return Response::Error(WireCode::kBadRequest,
                               "tenant must be non-empty");
      }
      session.tenant = *tenant;
    }
    Response resp;
    resp.lines.push_back("tenant=" + session.tenant);
    return resp;
  }
  if (req.verb == "QUERY") return DoQuery(req, session);
  if (req.verb == "EXPLAIN") return DoExplain(req);
  if (req.verb == "INSERT") return DoInsert(req);
  if (req.verb == "DELETE") return DoDelete(req);
  if (req.verb == "COMPACT") return DoCompact();
  if (req.verb == "STATS") return DoStats(req);
  if (req.verb == "CACHE") return DoCache(req);
  if (req.verb == "PARTITION_CREATE" || req.verb == "PARTITION_DROP" ||
      req.verb == "PARTITION_LIST") {
    if (pdb_ == nullptr) {
      return Response::Error(WireCode::kNotSupported,
                             "server is not partitioned");
    }
    if (req.verb == "PARTITION_CREATE") return DoPartitionCreate(req);
    if (req.verb == "PARTITION_DROP") return DoPartitionDrop(req);
    return DoPartitionList();
  }
  return Response::Error(WireCode::kBadRequest,
                         "unknown verb '" + req.verb + "'");
}

Response RankCubeServer::DoQuery(const Request& req, ServerSession& session) {
  // Parse before admitting: a malformed request must not consume a slot.
  Result<TopKQuery> query = ParseWireQuery(req, Schema());
  if (!query.ok()) return Response::FromStatus(query.status());

  uint64_t budget = 0;
  uint64_t deadline_ms = 0;
  if (const std::string* b = req.Find("budget")) {
    Result<uint64_t> v = ParseU64Arg(*b, "budget");
    if (!v.ok()) return Response::FromStatus(v.status());
    budget = v.value();
  }
  if (const std::string* d = req.Find("deadline_ms")) {
    Result<uint64_t> v = ParseU64Arg(*d, "deadline_ms");
    if (!v.ok()) return Response::FromStatus(v.status());
    deadline_ms = v.value();
  }

  Result<AdmissionController::Ticket> ticket = admission_.Admit(session.tenant);
  if (!ticket.ok()) return Response::FromStatus(ticket.status());

  QueryOptions opts;
  std::tie(opts.page_budget, opts.deadline_ms) =
      admission_.Clamp(session.tenant, budget, deadline_ms);
  if (const std::string* engine = req.Find("engine")) {
    opts.force_engine = *engine;
  }

  if (pdb_ != nullptr) {
    Result<PartitionedTopK> result = pdb_->Query(query.value(), opts);
    if (!result.ok()) return Response::FromStatus(result.status());
    ticket.value().set_ok(true);

    const PartitionedTopK& r = result.value();
    Response resp;
    char head[200];
    std::snprintf(head, sizeof(head),
                  "tuples=%zu engine=scatter pages=%llu time_ms=%.3f "
                  "queried=%zu pruned=%zu",
                  r.tuples.size(),
                  static_cast<unsigned long long>(r.stats.pages_read),
                  r.stats.time_ms, r.scatter.queried,
                  r.scatter.pruned_by_predicate + r.scatter.pruned_by_bound);
    resp.lines.emplace_back(head);
    for (const PartitionedTuple& t : r.tuples) {
      resp.lines.push_back(std::to_string(t.tid) + " " +
                           FormatDouble(t.score) + " " + t.partition);
    }
    return resp;
  }

  Result<TopKResult> result = db_->Query(query.value(), opts);
  if (!result.ok()) return Response::FromStatus(result.status());
  ticket.value().set_ok(true);

  const TopKResult& r = result.value();
  Response resp;
  char head[160];
  std::snprintf(head, sizeof(head), "tuples=%zu engine=%s pages=%llu time_ms=%.3f",
                r.tuples.size(),
                r.plan ? r.plan->chosen_engine.c_str() : "direct",
                static_cast<unsigned long long>(r.stats.pages_read),
                r.stats.time_ms);
  resp.lines.emplace_back(head);
  for (const ScoredTuple& t : r.tuples) {
    resp.lines.push_back(std::to_string(t.tid) + " " + FormatDouble(t.score));
  }
  return resp;
}

Response RankCubeServer::DoExplain(const Request& req) {
  Result<TopKQuery> query = ParseWireQuery(req, Schema());
  if (!query.ok()) return Response::FromStatus(query.status());
  QueryOptions opts;
  if (const std::string* engine = req.Find("engine")) {
    opts.force_engine = *engine;
  }
  if (pdb_ != nullptr) {
    Result<std::string> scatter = pdb_->ExplainScatter(query.value(), opts);
    if (!scatter.ok()) return Response::FromStatus(scatter.status());
    Response resp;
    resp.lines = SplitLines(scatter.value());
    return resp;
  }
  Result<PlanInfo> plan = db_->Explain(query.value(), opts);
  if (!plan.ok()) return Response::FromStatus(plan.status());
  Response resp;
  resp.lines = SplitLines(plan.value().ToString());
  return resp;
}

Response RankCubeServer::DoInsert(const Request& req) {
  const std::string* sel = req.Find("sel");
  const std::string* rank = req.Find("rank");
  if (sel == nullptr || rank == nullptr) {
    return Response::Error(WireCode::kBadRequest,
                           "INSERT requires sel=<v,...> rank=<r,...>");
  }
  Result<std::vector<int32_t>> sel_vals = ParseInt32List(*sel);
  if (!sel_vals.ok()) return Response::FromStatus(sel_vals.status());
  Result<std::vector<double>> rank_vals = ParseDoubleList(*rank);
  if (!rank_vals.ok()) return Response::FromStatus(rank_vals.status());
  if (pdb_ != nullptr) {
    Result<PartitionedRowRef> ref =
        pdb_->Insert(sel_vals.value(), rank_vals.value());
    if (!ref.ok()) return Response::FromStatus(ref.status());
    Response resp;
    resp.lines.push_back("tid=" + std::to_string(ref.value().tid));
    resp.lines.push_back("partition=" + ref.value().partition);
    return resp;
  }
  Result<Tid> tid = db_->Insert(sel_vals.value(), rank_vals.value());
  if (!tid.ok()) return Response::FromStatus(tid.status());
  Response resp;
  resp.lines.push_back("tid=" + std::to_string(tid.value()));
  return resp;
}

Response RankCubeServer::DoDelete(const Request& req) {
  const std::string* tid = req.Find("tid");
  if (tid == nullptr) {
    return Response::Error(WireCode::kBadRequest, "DELETE requires tid=<n>");
  }
  Result<uint64_t> v = ParseU64Arg(*tid, "tid");
  if (!v.ok()) return Response::FromStatus(v.status());
  if (v.value() > UINT32_MAX) {
    return Response::Error(WireCode::kBadRequest,
                           "tid=" + *tid + " out of range");
  }
  if (pdb_ != nullptr) {
    const std::string* partition = req.Find("partition");
    if (partition == nullptr) {
      return Response::Error(
          WireCode::kBadRequest,
          "partitioned DELETE requires partition=<name> (tids are dense per "
          "partition)");
    }
    Status s = pdb_->Delete(*partition, static_cast<Tid>(v.value()));
    if (!s.ok()) return Response::FromStatus(s);
    return Response::Ok();
  }
  Status s = db_->Delete(static_cast<Tid>(v.value()));
  if (!s.ok()) return Response::FromStatus(s);
  return Response::Ok();
}

Response RankCubeServer::DoCompact() {
  Result<CompactionReport> report =
      pdb_ != nullptr ? pdb_->Compact() : db_->Compact();
  if (!report.ok()) return Response::FromStatus(report.status());
  const CompactionReport& r = report.value();
  Response resp;
  resp.lines.push_back("epoch=" + std::to_string(r.epoch));
  resp.lines.push_back("absorbed_inserts=" + std::to_string(r.absorbed_inserts));
  resp.lines.push_back("absorbed_deletes=" + std::to_string(r.absorbed_deletes));
  resp.lines.push_back("maintained=" + std::to_string(r.maintained));
  resp.lines.push_back("rebuilt=" + std::to_string(r.rebuilt));
  resp.lines.push_back("pages=" + std::to_string(r.pages));
  return resp;
}

Response RankCubeServer::DoStats(const Request& req) {
  Response resp;
  if (pdb_ != nullptr) {
    if (const std::string* partition = req.Find("partition")) {
      // One partition's counters — including its own durability exposure
      // (wal_records since its checkpoint, checkpoint_generation,
      // backing_reads).
      Result<DbStats> stats = pdb_->PartitionStats(*partition);
      if (!stats.ok()) return Response::FromStatus(stats.status());
      resp.lines = SplitLines(stats.value().ToString());
      return resp;
    }
    resp.lines = SplitLines(pdb_->Stats().ToString());
  } else {
    resp.lines = SplitLines(db_->Stats().ToString());
  }
  for (const auto& [tenant, c] : admission_.Snapshot()) {
    const std::string prefix = "tenant." + tenant + ".";
    resp.lines.push_back(prefix + "inflight=" + std::to_string(c.inflight));
    resp.lines.push_back(prefix + "admitted=" + std::to_string(c.admitted));
    resp.lines.push_back(prefix + "rejected=" + std::to_string(c.rejected));
    resp.lines.push_back(prefix + "completed=" + std::to_string(c.completed));
    resp.lines.push_back(prefix + "failed=" + std::to_string(c.failed));
  }
  Counters c = counters();
  resp.lines.push_back("server.connections_accepted=" +
                       std::to_string(c.connections_accepted));
  resp.lines.push_back("server.connections_active=" +
                       std::to_string(c.connections_active));
  resp.lines.push_back("server.requests=" + std::to_string(c.requests));
  resp.lines.push_back("server.request_errors=" +
                       std::to_string(c.request_errors));
  resp.lines.push_back("server.protocol_errors=" +
                       std::to_string(c.protocol_errors));
  return resp;
}

Response RankCubeServer::DoCache(const Request& req) {
  const bool enabled =
      pdb_ != nullptr ? pdb_->cache_enabled() : db_->cache_enabled();
  const std::string* op_arg = req.Find("op");
  const std::string op = op_arg != nullptr ? *op_arg : "stats";
  // resize may (re-)enable a disabled cache; everything else needs one.
  if (!enabled && op != "resize") {
    return Response::Error(WireCode::kNotSupported,
                           "result cache is disabled (--cache_mb=0)");
  }
  if (op == "clear") {
    if (pdb_ != nullptr) {
      pdb_->ClearCache();
    } else {
      db_->ClearCache();
    }
    return Response::Ok();
  }
  if (op == "resize") {
    const std::string* bytes = req.Find("bytes");
    if (bytes == nullptr) {
      return Response::Error(WireCode::kBadRequest,
                             "CACHE op=resize requires bytes=<n>");
    }
    Result<uint64_t> v = ParseU64Arg(*bytes, "bytes");
    if (!v.ok()) return Response::FromStatus(v.status());
    if (pdb_ != nullptr) {
      pdb_->ResizeCache(static_cast<size_t>(v.value()));
    } else {
      db_->ResizeCache(static_cast<size_t>(v.value()));
    }
    return Response::Ok();
  }
  if (op != "stats") {
    return Response::Error(WireCode::kBadRequest,
                           "CACHE op must be stats, clear or resize");
  }
  Response resp;
  resp.lines = SplitLines(
      (pdb_ != nullptr ? pdb_->CacheStats() : db_->CacheStats()).ToString());
  return resp;
}

Response RankCubeServer::DoPartitionCreate(const Request& req) {
  const std::string* name = req.Find("name");
  const std::string* lo = req.Find("lo");
  const std::string* hi = req.Find("hi");
  if (name == nullptr || lo == nullptr || hi == nullptr) {
    return Response::Error(
        WireCode::kBadRequest,
        "PARTITION_CREATE requires name=<id> lo=<n> hi=<n>");
  }
  auto parse_i32 = [](const std::string& s, int32_t* out) {
    char* end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (s.empty() || *end != '\0' || v < INT32_MIN || v > INT32_MAX) {
      return false;
    }
    *out = static_cast<int32_t>(v);
    return true;
  };
  PartitionRange range;
  if (!parse_i32(*lo, &range.lo) || !parse_i32(*hi, &range.hi)) {
    return Response::Error(WireCode::kBadRequest,
                           "bad lo/hi value in PARTITION_CREATE");
  }
  Status s = pdb_->CreatePartition(*name, range);
  if (!s.ok()) return Response::FromStatus(s);
  Response resp;
  resp.lines.push_back("partition=" + *name + " range=" + range.ToString());
  return resp;
}

Response RankCubeServer::DoPartitionDrop(const Request& req) {
  const std::string* name = req.Find("name");
  if (name == nullptr) {
    return Response::Error(WireCode::kBadRequest,
                           "PARTITION_DROP requires name=<id>");
  }
  Status s = pdb_->DropPartition(*name);
  if (!s.ok()) return Response::FromStatus(s);
  return Response::Ok();
}

Response RankCubeServer::DoPartitionList() {
  Response resp;
  for (const PartitionInfo& p : pdb_->ListPartitions()) {
    resp.lines.push_back("partition=" + p.name + " range=" +
                         p.range.ToString() + " rows=" +
                         std::to_string(p.rows) + " live_rows=" +
                         std::to_string(p.live_rows) + " epoch=" +
                         std::to_string(p.epoch) + " read_only=" +
                         (p.read_only ? "1" : "0"));
  }
  return resp;
}

}  // namespace rankcube
