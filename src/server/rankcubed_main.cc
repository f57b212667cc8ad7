// rankcubed: the ranking-cube network daemon.
//
// Loads (or generates) a relation, builds a RankCubeDb over it, and serves
// the wire protocol (server/protocol.h) until SIGINT/SIGTERM. All state is
// in-memory — the binary exists to put the full read/write stack (planner
// routing, lazy builds, delta maintenance, admission control) behind a
// socket, so multiple tenants can drive one database concurrently.
//
// Usage:
//   rankcubed [--host=127.0.0.1] [--port=0]
//             [--rows=N] [--sel_dims=S] [--cardinality=C] [--rank_dims=R]
//             [--zipf=THETA] [--seed=N]
//             [--cache_pages=N] [--latency_us=N] [--cache_mb=N]
//             [--max_inflight=N] [--page_budget=N] [--deadline_ms=N]
//             [--tenant=name:inflight:budget:deadline_ms]...
//             [--data_dir=PATH] [--fsync=always|batch|off]
//             [--partition_dim=D] [--partition=name:lo:hi]...
//
// --port=0 picks an ephemeral port; the daemon always prints
// "rankcubed listening on HOST:PORT" once it serves (scripts wait for that
// line). The quota flags set the default tenant quota; each --tenant flag
// overrides it for one named tenant (0 fields mean "no limit").
//
// --cache_mb sizes the workload-aware result cache (default 64 MiB;
// 0 disables it, and the CACHE verb then answers NOT_SUPPORTED). The
// cache serves repeated and near-duplicate queries without touching the
// engines and invalidates itself on every write via table epochs.
//
// Any --partition flag switches the daemon to PARTITIONED serving: the
// generated relation is split by selection dimension --partition_dim into
// the named half-open ranges [lo, hi), each partition gets its own engines
// and (with --data_dir) its own WAL/checkpoint subdirectory, and the wire
// protocol gains the PARTITION_CREATE/PARTITION_DROP/PARTITION_LIST verbs.
// Rows whose partition-dim value no range covers are dropped with a
// warning. On a durable restart the recovered manifest wins and the
// --partition flags are ignored, exactly like the generator flags; a
// data_dir holding a PARTITIONS manifest always reboots partitioned,
// even with no --partition flags on the command line.
//
// With --data_dir the database is DURABLE: the first boot seeds the
// directory from the generated relation (checkpoint + WAL), later boots
// recover it — replaying the WAL — and ignore the generator flags. --fsync
// picks the commit policy (always = no acked write can be lost; batch =
// group commit; off = benchmark mode). SIGTERM/SIGINT stop the listener,
// flush the WAL and take a clean checkpoint before exiting, so a graceful
// restart replays nothing.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <semaphore.h>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "partition/partitioned_db.h"
#include "planner/rank_cube_db.h"
#include "server/server.h"
#include "storage/fs.h"

namespace rankcube {
namespace {

struct Flags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t rows = 20000;
  int sel_dims = 3;
  int32_t cardinality = 20;
  int rank_dims = 2;
  double zipf = 0.0;
  uint64_t seed = 42;
  size_t cache_pages = 4096;
  uint32_t latency_us = 100;
  uint64_t cache_mb = 64;  ///< result cache budget; 0 disables caching
  TenantQuota default_quota{/*max_inflight=*/8, /*page_budget=*/0,
                            /*deadline_ms=*/0};
  std::map<std::string, TenantQuota> tenant_quotas;
  std::string data_dir;  ///< empty = ephemeral (historical behavior)
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  int partition_dim = 0;
  /// (name, [lo, hi)) per --partition flag; non-empty = partitioned mode.
  std::vector<std::pair<std::string, PartitionRange>> partitions;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  *out = arg + len;
  return true;
}

/// "name:inflight:budget:deadline_ms" (missing trailing fields = 0).
bool ParseTenantFlag(const std::string& v, std::string* name,
                     TenantQuota* quota) {
  size_t c1 = v.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  *name = v.substr(0, c1);
  *quota = TenantQuota{};
  const char* p = v.c_str() + c1 + 1;
  char* end = nullptr;
  quota->max_inflight = static_cast<uint32_t>(std::strtoul(p, &end, 10));
  if (*end == ':') {
    quota->page_budget = std::strtoull(end + 1, &end, 10);
    if (*end == ':') quota->deadline_ms = std::strtoull(end + 1, &end, 10);
  }
  return *end == '\0';
}

/// "name:lo:hi" — a half-open partition range on the partition dimension.
bool ParsePartitionFlag(const std::string& v, std::string* name,
                        PartitionRange* range) {
  size_t c1 = v.find(':');
  if (c1 == std::string::npos || c1 == 0) return false;
  *name = v.substr(0, c1);
  const char* p = v.c_str() + c1 + 1;
  char* end = nullptr;
  long lo = std::strtol(p, &end, 10);
  if (end == p || *end != ':') return false;
  p = end + 1;
  long hi = std::strtol(p, &end, 10);
  if (end == p || *end != '\0') return false;
  range->lo = static_cast<int32_t>(lo);
  range->hi = static_cast<int32_t>(hi);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host=H] [--port=P] [--rows=N] [--sel_dims=S] "
               "[--cardinality=C] [--rank_dims=R] [--zipf=T] [--seed=N] "
               "[--cache_pages=N] [--latency_us=N] [--cache_mb=N] "
               "[--max_inflight=N] "
               "[--page_budget=N] [--deadline_ms=N] "
               "[--tenant=name:inflight:budget:deadline_ms]... "
               "[--data_dir=PATH] [--fsync=always|batch|off] "
               "[--partition_dim=D] [--partition=name:lo:hi]...\n",
               argv0);
  return 2;
}

sem_t g_shutdown;

void HandleSignal(int) { sem_post(&g_shutdown); }

int Main(int argc, char** argv) {
  Flags f;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--host=", &v)) {
      f.host = v;
    } else if (ParseFlag(argv[i], "--port=", &v)) {
      f.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--rows=", &v)) {
      f.rows = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--sel_dims=", &v)) {
      f.sel_dims = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--cardinality=", &v)) {
      f.cardinality = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--rank_dims=", &v)) {
      f.rank_dims = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--zipf=", &v)) {
      f.zipf = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--seed=", &v)) {
      f.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--cache_pages=", &v)) {
      f.cache_pages = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--latency_us=", &v)) {
      f.latency_us = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--cache_mb=", &v)) {
      f.cache_mb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--max_inflight=", &v)) {
      f.default_quota.max_inflight =
          static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--page_budget=", &v)) {
      f.default_quota.page_budget = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--deadline_ms=", &v)) {
      f.default_quota.deadline_ms = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--data_dir=", &v)) {
      f.data_dir = v;
    } else if (ParseFlag(argv[i], "--fsync=", &v)) {
      auto policy = ParseFsyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return Usage(argv[0]);
      }
      f.fsync = policy.value();
    } else if (ParseFlag(argv[i], "--partition_dim=", &v)) {
      f.partition_dim = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--partition=", &v)) {
      std::string name;
      PartitionRange range;
      if (!ParsePartitionFlag(v, &name, &range)) {
        std::fprintf(stderr, "bad --partition spec '%s'\n", v.c_str());
        return Usage(argv[0]);
      }
      f.partitions.emplace_back(name, range);
    } else if (ParseFlag(argv[i], "--tenant=", &v)) {
      std::string name;
      TenantQuota quota;
      if (!ParseTenantFlag(v, &name, &quota)) {
        std::fprintf(stderr, "bad --tenant spec '%s'\n", v.c_str());
        return Usage(argv[0]);
      }
      f.tenant_quotas[name] = quota;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }

  SyntheticSpec spec;
  spec.num_rows = f.rows;
  spec.num_sel_dims = f.sel_dims;
  spec.cardinality = f.cardinality;
  spec.num_rank_dims = f.rank_dims;
  spec.sel_zipf_theta = f.zipf;
  spec.seed = f.seed;

  std::fprintf(stderr,
               "rankcubed: generating %llu rows (S=%d C=%d R=%d seed=%llu)\n",
               static_cast<unsigned long long>(f.rows), f.sel_dims,
               f.cardinality, f.rank_dims,
               static_cast<unsigned long long>(f.seed));

  RankCubeDb::Options db_options;
  db_options.store.cache_pages = f.cache_pages;
  db_options.store.read_latency_us = f.latency_us;
  db_options.cache.max_bytes = static_cast<size_t>(f.cache_mb) << 20;

  // A data_dir that already holds a partition manifest must reboot through
  // the partitioned path even if no --partition flags were given — opening
  // it as a plain durable db would lay a second, unpartitioned database
  // over the partitioned layout.
  bool recovering_partitioned = false;
  if (!f.data_dir.empty()) {
    auto exists = Fs::Posix()->FileExists(f.data_dir + "/" +
                                          PartitionManifestFileName());
    recovering_partitioned = exists.ok() && exists.value();
  }

  std::unique_ptr<RankCubeDb> db;
  std::unique_ptr<PartitionedDb> pdb;
  if (!f.partitions.empty() || recovering_partitioned) {
    Table base = GenerateSynthetic(spec);
    if (f.partition_dim < 0 || f.partition_dim >= base.num_sel_dims()) {
      std::fprintf(stderr, "rankcubed: --partition_dim=%d out of range [0,%d)\n",
                   f.partition_dim, base.num_sel_dims());
      return 1;
    }
    PartitionedDb::Options popts;
    popts.schema = base.schema();
    popts.partition_dim = f.partition_dim;
    popts.db = db_options;
    popts.cache.max_bytes = static_cast<size_t>(f.cache_mb) << 20;
    popts.data_dir = f.data_dir;
    popts.fsync = f.fsync;
    auto opened = PartitionedDb::Open(std::move(popts));
    if (!opened.ok()) {
      std::fprintf(stderr, "rankcubed: open partitioned %s: %s\n",
                   f.data_dir.c_str(), opened.status().ToString().c_str());
      return 1;
    }
    pdb = std::move(opened).value();
    if (pdb->ListPartitions().empty()) {
      // Fresh instance: materialize the flag partitions, each seeded with
      // its slice of the generated relation.
      uint64_t covered = 0;
      std::vector<int32_t> sel(base.num_sel_dims());
      std::vector<double> rank(base.num_rank_dims());
      for (const auto& [name, range] : f.partitions) {
        Table seed(base.schema());
        for (Tid row = 0; row < static_cast<Tid>(base.num_rows()); ++row) {
          if (!range.Contains(base.sel(row, f.partition_dim))) continue;
          for (int d = 0; d < base.num_sel_dims(); ++d)
            sel[d] = base.sel(row, d);
          for (int d = 0; d < base.num_rank_dims(); ++d)
            rank[d] = base.rank(row, d);
          Status add = seed.AddRow(sel, rank);
          if (!add.ok()) {
            std::fprintf(stderr, "rankcubed: seed row: %s\n",
                         add.ToString().c_str());
            return 1;
          }
          ++covered;
        }
        std::fprintf(stderr, "rankcubed: partition %s %s: %zu rows\n",
                     name.c_str(), range.ToString().c_str(), seed.num_rows());
        Status created = pdb->CreatePartition(name, range, std::move(seed));
        if (!created.ok()) {
          std::fprintf(stderr, "rankcubed: create partition %s: %s\n",
                       name.c_str(), created.ToString().c_str());
          return 1;
        }
      }
      if (covered < base.num_rows()) {
        std::fprintf(stderr,
                     "rankcubed: warning: %llu rows outside every partition "
                     "range were dropped\n",
                     static_cast<unsigned long long>(base.num_rows() - covered));
      }
    } else {
      std::fprintf(stderr,
                   "rankcubed: recovered %zu partitions from %s "
                   "(--partition flags ignored)\n",
                   pdb->ListPartitions().size(), f.data_dir.c_str());
    }
  } else if (f.data_dir.empty()) {
    db = std::make_unique<RankCubeDb>(GenerateSynthetic(spec), db_options);
  } else {
    db_options.durability.data_dir = f.data_dir;
    db_options.durability.fsync = f.fsync;
    auto opened = RankCubeDb::Open(GenerateSynthetic(spec), db_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "rankcubed: open %s: %s\n", f.data_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    db = std::move(opened).value();
    const RecoveryInfo& r = db->recovery();
    std::fprintf(stderr,
                 "rankcubed: %s %s (fsync=%s, checkpoint_epoch=%llu, "
                 "replayed=%llu, %.1f ms)%s%s\n",
                 r.created ? "created" : "recovered", f.data_dir.c_str(),
                 FsyncPolicyName(f.fsync),
                 static_cast<unsigned long long>(r.checkpoint_epoch),
                 static_cast<unsigned long long>(r.replayed), r.recovery_ms,
                 r.read_only ? " READ-ONLY: " : "",
                 r.read_only ? r.degraded_reason.c_str() : "");
  }

  RankCubeServer::Options server_options;
  server_options.host = f.host;
  server_options.port = f.port;
  server_options.default_quota = f.default_quota;
  server_options.tenant_quotas = f.tenant_quotas;
  std::unique_ptr<RankCubeServer> server;
  if (pdb != nullptr) {
    server = std::make_unique<RankCubeServer>(pdb.get(), server_options);
  } else {
    server = std::make_unique<RankCubeServer>(db.get(), server_options);
  }

  Status s = server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "rankcubed: %s\n", s.ToString().c_str());
    return 1;
  }
  // stdout + flush: scripts block on this exact line to learn the port.
  std::printf("rankcubed listening on %s:%u\n", f.host.c_str(),
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  sem_init(&g_shutdown, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown) != 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "rankcubed: shutting down\n");
  server->Stop();
  if (pdb != nullptr) {
    bool read_only = false;
    for (const PartitionInfo& info : pdb->ListPartitions()) {
      read_only = read_only || info.read_only;
    }
    if (pdb->durable() && !read_only) {
      Status ckpt = pdb->Checkpoint();
      if (!ckpt.ok()) {
        std::fprintf(stderr, "rankcubed: shutdown checkpoint: %s\n",
                     ckpt.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "rankcubed: checkpointed %zu partitions\n",
                   pdb->ListPartitions().size());
    }
  } else if (db->durable() && !db->read_only()) {
    // Listener drained: flush the WAL and leave a clean checkpoint so the
    // next boot replays nothing.
    Status ckpt = db->Checkpoint();
    if (!ckpt.ok()) {
      std::fprintf(stderr, "rankcubed: shutdown checkpoint: %s\n",
                   ckpt.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "rankcubed: checkpointed at epoch %llu\n",
                 static_cast<unsigned long long>(db->table().epoch()));
  }
  return 0;
}

}  // namespace
}  // namespace rankcube

int main(int argc, char** argv) { return rankcube::Main(argc, argv); }
