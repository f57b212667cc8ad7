// Crash-recovery acceptance suite for the durability layer (PR: WAL +
// checkpoints + fault injection).
//
// The centerpiece is a kill-point sweep: a deterministic mutation script
// runs against a durable RankCubeDb on a FaultFs whose op budget is swept
// over every filesystem mutation the workload performs. After each
// simulated power cut the db is reopened and compared — tuple-identically,
// over a panel of queries — to an in-memory oracle holding exactly the
// epoch-prefix of the script the recovery reports. Under fsync=always the
// sweep also proves the headline guarantee: no acknowledged write is ever
// lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "engine/query_builder.h"
#include "partition/partition_manifest.h"
#include "planner/rank_cube_db.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/durability.h"
#include "storage/fault_fs.h"
#include "storage/file_page_store.h"
#include "storage/fs.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace rankcube {
namespace {

// ---------------------------------------------------------------------------
// CRC-32C

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32C check value ("123456789" -> 0xE3069283).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_NE(StoredCrc32c(""), 0u);  // 0 is reserved as "unset"
}

TEST(Crc32Test, SeedChaining) {
  uint32_t whole = Crc32c("hello world", 11);
  uint32_t part = Crc32c("hello ", 6);
  EXPECT_EQ(Crc32c("world", 5, part), whole);
}

// ---------------------------------------------------------------------------
// FaultFs power-loss semantics

TEST(FaultFsTest, CrashRevertsToSyncedWatermark) {
  FaultFs fs;
  auto file = fs.NewWritableFile("/d/f", true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->Append("durable").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  ASSERT_TRUE(file.value()->Append("lost-on-crash").ok());
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "durablelost-on-crash");

  fs.Crash();
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "durable");
}

TEST(FaultFsTest, TornTailSurvivesCrash) {
  FaultFs fs;
  FaultPlan plan;
  plan.torn_tail_bytes = 3;
  auto file = fs.NewWritableFile("/d/f", true);
  ASSERT_TRUE(file.value()->Append("base").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  fs.SetPlan(plan);
  ASSERT_TRUE(file.value()->Append("unsynced").ok());
  fs.Crash();
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "baseuns");
}

TEST(FaultFsTest, CrashAfterOpsLatchesEveryLaterMutation) {
  FaultFs fs;
  auto file = fs.NewWritableFile("/d/f", true);
  FaultPlan plan;
  plan.crash_after_ops = 2;
  fs.SetPlan(plan);
  EXPECT_TRUE(file.value()->Append("a").ok());   // op 0
  EXPECT_TRUE(file.value()->Sync().ok());        // op 1
  EXPECT_FALSE(file.value()->Append("b").ok());  // op 2: kill point
  EXPECT_TRUE(fs.crashed());
  EXPECT_FALSE(file.value()->Sync().ok());  // latched
  EXPECT_FALSE(fs.NewWritableFile("/d/g", true).ok());
}

TEST(FaultFsTest, ShortWritePersistsHalf) {
  FaultFs fs;
  auto file = fs.NewWritableFile("/d/f", true);
  FaultPlan plan;
  plan.short_write_at = 0;
  fs.SetPlan(plan);
  EXPECT_FALSE(file.value()->Append("12345678").ok());
  EXPECT_TRUE(fs.crashed());
  // The torn write left half the bytes in the cache view...
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "1234");
  fs.Crash();
  // ...and nothing was ever synced, so the crash erases even those.
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "");
}

TEST(FaultFsTest, FailSyncDoesNotAdvanceWatermark) {
  FaultFs fs;
  auto file = fs.NewWritableFile("/d/f", true);
  FaultPlan plan;
  plan.fail_sync_at = 1;
  fs.SetPlan(plan);
  ASSERT_TRUE(file.value()->Append("data").ok());  // op 0
  EXPECT_FALSE(file.value()->Sync().ok());         // op 1: EIO
  EXPECT_FALSE(fs.crashed());                      // not a kill point
  fs.Crash();
  EXPECT_EQ(fs.ReadFileToString("/d/f").value(), "");
}

TEST(FaultFsTest, RenameIsAtomicAndHandlesSurvive) {
  FaultFs fs;
  auto file = fs.NewWritableFile("/d/tmp", true);
  ASSERT_TRUE(file.value()->Append("v2").ok());
  ASSERT_TRUE(file.value()->Sync().ok());
  auto old = fs.NewWritableFile("/d/final", true);
  ASSERT_TRUE(old.value()->Append("v1").ok());
  ASSERT_TRUE(old.value()->Sync().ok());
  ASSERT_TRUE(fs.RenameFile("/d/tmp", "/d/final").ok());
  EXPECT_EQ(fs.ReadFileToString("/d/final").value(), "v2");
  EXPECT_FALSE(fs.FileExists("/d/tmp").value());
  // The old handle still appends to the state it was opened on (POSIX fd
  // semantics), not to the renamed-over path's new content.
  ASSERT_TRUE(old.value()->Append("x").ok());
  EXPECT_EQ(fs.ReadFileToString("/d/final").value(), "v2");
}

TEST(FaultFsTest, ListDirIsShallow) {
  FaultFs fs;
  (void)fs.NewWritableFile("/d/a", true);
  (void)fs.NewWritableFile("/d/b", true);
  (void)fs.NewWritableFile("/d/sub/c", true);
  (void)fs.NewWritableFile("/other/x", true);
  auto names = fs.ListDir("/d");
  ASSERT_TRUE(names.ok());
  std::vector<std::string> sorted = names.value();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------------
// WAL

TEST(WalTest, RoundTrip) {
  FaultFs fs;
  auto wal = WalWriter::Create(&fs, "/d/wal", 7, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->AppendInsert(8, {1, 2}, {0.5, 0.25}).ok());
  ASSERT_TRUE(wal.value()->AppendDelete(9, 3).ok());

  auto read = ReadWal(&fs, "/d/wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().start_epoch, 7u);
  EXPECT_FALSE(read.value().torn_tail);
  EXPECT_FALSE(read.value().mid_corruption);
  ASSERT_EQ(read.value().records.size(), 2u);
  const WalRecord& ins = read.value().records[0];
  EXPECT_EQ(ins.kind, DeltaStore::MutationKind::kInsert);
  EXPECT_EQ(ins.seq, 8u);
  EXPECT_EQ(ins.sel, (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(ins.rank, (std::vector<double>{0.5, 0.25}));
  const WalRecord& del = read.value().records[1];
  EXPECT_EQ(del.kind, DeltaStore::MutationKind::kDelete);
  EXPECT_EQ(del.seq, 9u);
  EXPECT_EQ(del.tid, 3u);
}

TEST(WalTest, TornTailEndsTheLogRecoverably) {
  FaultFs fs;
  auto wal = WalWriter::Create(&fs, "/d/wal", 0, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.value()->AppendInsert(1, {1}, {0.5}).ok());
  uint64_t good_bytes = wal.value()->bytes();
  ASSERT_TRUE(wal.value()->AppendInsert(2, {2}, {0.75}).ok());
  // Tear the last record in half.
  uint64_t full = fs.FileSize("/d/wal").value();
  ASSERT_TRUE(fs.TruncateFile("/d/wal", full - 5).ok());

  auto read = ReadWal(&fs, "/d/wal");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().torn_tail);
  EXPECT_FALSE(read.value().mid_corruption);
  EXPECT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().valid_bytes, good_bytes);
}

TEST(WalTest, MidLogCorruptionIsNotATornTail) {
  FaultFs fs;
  auto wal = WalWriter::Create(&fs, "/d/wal", 0, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.value()->AppendInsert(1, {1}, {0.5}).ok());
  uint64_t first_end = wal.value()->bytes();
  ASSERT_TRUE(wal.value()->AppendInsert(2, {2}, {0.75}).ok());
  ASSERT_TRUE(wal.value()->AppendInsert(3, {3}, {0.25}).ok());
  // Flip a byte inside record 2's body: record 3 still parses beyond it.
  ASSERT_TRUE(fs.CorruptByte("/d/wal", first_end + 12).ok());

  auto read = ReadWal(&fs, "/d/wal");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().mid_corruption);
  EXPECT_FALSE(read.value().torn_tail);
  EXPECT_EQ(read.value().records.size(), 1u);  // the prefix before the hole
}

TEST(WalTest, HeaderCorruptionFailsTheRead) {
  FaultFs fs;
  auto wal = WalWriter::Create(&fs, "/d/wal", 0, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.value()->AppendInsert(1, {1}, {0.5}).ok());
  ASSERT_TRUE(fs.CorruptByte("/d/wal", 6).ok());
  auto read = ReadWal(&fs, "/d/wal");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kCorruption);
}

// ---------------------------------------------------------------------------
// Checkpoint paged file

TEST(FilePageStoreTest, BlobRoundTripAcrossPages) {
  FaultFs fs;
  std::string blob;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    blob += static_cast<char>(rng.UniformInt(256));
  }
  ASSERT_TRUE(
      FilePageStore::WriteBlobFile(&fs, "/d/ckpt", blob, 128, 42).ok());
  auto store = FilePageStore::Open(&fs, "/d/ckpt");
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->epoch(), 42u);
  EXPECT_EQ(store.value()->payload_bytes(), blob.size());
  EXPECT_GT(store.value()->num_data_pages(), 1u);
  auto round = store.value()->ReadBlob();
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), blob);
}

TEST(FilePageStoreTest, PageCorruptionIsDetectedAndNamed) {
  FaultFs fs;
  std::string blob(500, 'x');
  ASSERT_TRUE(
      FilePageStore::WriteBlobFile(&fs, "/d/ckpt", blob, 128, 1).ok());
  // Damage a byte inside data page 2 (pages are 128 bytes; page 0 header).
  ASSERT_TRUE(fs.CorruptByte("/d/ckpt", 2 * 128 + 40).ok());
  auto store = FilePageStore::Open(&fs, "/d/ckpt");
  ASSERT_TRUE(store.ok());  // header is fine
  std::string payload;
  Status s = store.value()->ReadPage(2, &payload);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.message().find("page 2"), std::string::npos);
  EXPECT_TRUE(store.value()->ReadPage(1, &payload).ok());  // others fine
  EXPECT_FALSE(store.value()->ReadBlob().ok());
}

TEST(FilePageStoreTest, HeaderCorruptionFailsOpen) {
  FaultFs fs;
  ASSERT_TRUE(
      FilePageStore::WriteBlobFile(&fs, "/d/ckpt", "data", 128, 1).ok());
  ASSERT_TRUE(fs.CorruptByte("/d/ckpt", 9).ok());
  auto store = FilePageStore::Open(&fs, "/d/ckpt");
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Status::Code::kCorruption);
}

TEST(FilePageStoreTest, TruncatedFileFailsOpen) {
  FaultFs fs;
  std::string blob(500, 'y');
  ASSERT_TRUE(
      FilePageStore::WriteBlobFile(&fs, "/d/ckpt", blob, 128, 1).ok());
  uint64_t size = fs.FileSize("/d/ckpt").value();
  ASSERT_TRUE(fs.TruncateFile("/d/ckpt", size - 100).ok());
  EXPECT_EQ(FilePageStore::Open(&fs, "/d/ckpt").status().code(),
            Status::Code::kCorruption);
}

// ---------------------------------------------------------------------------
// Manifest

TEST(ManifestTest, RoundTripAndNames) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir("/d").ok());
  Manifest m;
  m.checkpoint_file = CheckpointFileName(42);
  m.epoch = 42;
  m.wal_file = WalFileName(42);
  ASSERT_TRUE(StoreManifest(&fs, "/d", m).ok());
  auto loaded = LoadManifest(&fs, "/d");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().checkpoint_file, m.checkpoint_file);
  EXPECT_EQ(loaded.value().epoch, 42u);
  EXPECT_EQ(loaded.value().wal_file, m.wal_file);
  EXPECT_TRUE(IsCheckpointFileName(m.checkpoint_file));
  EXPECT_TRUE(IsWalFileName(m.wal_file));
  EXPECT_FALSE(IsCheckpointFileName("MANIFEST"));
}

TEST(ManifestTest, MissingIsNotFoundCorruptIsCorruption) {
  FaultFs fs;
  EXPECT_EQ(LoadManifest(&fs, "/d").status().code(), Status::Code::kNotFound);
  Manifest m;
  m.checkpoint_file = CheckpointFileName(1);
  m.epoch = 1;
  m.wal_file = WalFileName(1);
  ASSERT_TRUE(StoreManifest(&fs, "/d", m).ok());
  ASSERT_TRUE(fs.CorruptByte(JoinPath("/d", ManifestFileName()), 30).ok());
  EXPECT_EQ(LoadManifest(&fs, "/d").status().code(),
            Status::Code::kCorruption);
}

// The storage and partition manifests share one framing: their bytes on
// disk are pinned, and every flipped byte, every truncation and any
// trailing byte loads as kCorruption.
TEST(ManifestTest, FramingIsPinnedAndEveryDamageIsCorruption) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir("/d").ok());
  Manifest m;
  m.checkpoint_file = CheckpointFileName(7);
  m.epoch = 7;
  m.wal_file = WalFileName(7);
  m.generation = 3;
  ASSERT_TRUE(StoreManifest(&fs, "/d", m).ok());
  PartitionManifest pm;
  pm.partition_dim = 1;
  pm.partitions = {{"hot", {0, 4}}, {"warm", {4, 12}}};
  ASSERT_TRUE(StorePartitionManifest(&fs, "/d", pm).ok());

  struct File {
    const char* name;
    std::string pinned;
    std::function<Status()> load;
  };
  const File files[] = {
      {ManifestFileName(),
       "rankcube-manifest v1\ncheckpoint=ckpt-00000000000000000007.tab\n"
       "epoch=7\nwal=wal-00000000000000000007.log\ngeneration=3\n"
       "crc=327960521\n",
       [&] { return LoadManifest(&fs, "/d").status(); }},
      {PartitionManifestFileName(),
       "rankcube-partitions v1\ndim=1\npartition=hot 0 4\n"
       "partition=warm 4 12\ncrc=1013595130\n",
       [&] { return LoadPartitionManifest(&fs, "/d").status(); }},
  };
  for (const File& file : files) {
    SCOPED_TRACE(file.name);
    auto text = fs.ReadFileToString(JoinPath("/d", file.name));
    ASSERT_TRUE(text.ok());
    ASSERT_EQ(text.value(), file.pinned);
    ASSERT_TRUE(file.load().ok());
    auto expect_corrupt = [&](const std::string& damaged) {
      ASSERT_TRUE(WriteFileAtomic(&fs, "/d", file.name, damaged).ok());
      EXPECT_EQ(file.load().code(), Status::Code::kCorruption) << damaged;
    };
    for (size_t i = 0; i < file.pinned.size(); ++i) {
      std::string flipped = file.pinned;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x5A);
      expect_corrupt(flipped);
    }
    for (size_t n = 0; n < file.pinned.size(); ++n) {
      expect_corrupt(file.pinned.substr(0, n));
    }
    expect_corrupt(file.pinned + "x");
  }
}

// A manifest written before the generation line existed still loads: the
// optional line is probed without consuming the crc line after it.
TEST(ManifestTest, ManifestWithoutGenerationLoads) {
  FaultFs fs;
  ASSERT_TRUE(fs.CreateDir("/d").ok());
  const std::string body =
      "rankcube-manifest v1\ncheckpoint=ckpt-00000000000000000005.tab\n"
      "epoch=5\nwal=wal-00000000000000000005.log\n";
  ASSERT_TRUE(WriteFileAtomic(&fs, "/d", ManifestFileName(),
                              body + "crc=" +
                                  std::to_string(StoredCrc32c(body)) + "\n")
                  .ok());
  auto loaded = LoadManifest(&fs, "/d");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().epoch, 5u);
  EXPECT_EQ(loaded.value().wal_file, WalFileName(5));
  EXPECT_EQ(loaded.value().generation, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot codec

Table MakeSeedTable(int rows) {
  TableSchema schema;
  schema.sel_cardinality = {4, 3};
  schema.num_rank_dims = 2;
  Table table(schema);
  Rng rng(11);
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .AddRow({static_cast<int32_t>(rng.UniformInt(4)),
                             static_cast<int32_t>(rng.UniformInt(3))},
                            {rng.Uniform01(), rng.Uniform01()})
                    .ok());
  }
  return table;
}

TEST(SnapshotTest, RoundTripWithTombstonesAndEpoch) {
  Table table = MakeSeedTable(50);
  ASSERT_TRUE(table.Insert({1, 1}, {0.5, 0.5}).ok());
  ASSERT_TRUE(table.Delete(3).ok());
  ASSERT_TRUE(table.Delete(17).ok());
  const uint64_t epoch = table.epoch();

  auto round = DecodeTableSnapshot(EncodeTableSnapshot(table));
  ASSERT_TRUE(round.ok());
  const Table& t = round.value();
  EXPECT_EQ(t.num_rows(), table.num_rows());
  EXPECT_EQ(t.num_live(), table.num_live());
  EXPECT_EQ(t.epoch(), epoch);
  EXPECT_EQ(t.delta().compacted_epoch(), epoch);  // log restored empty
  EXPECT_TRUE(t.delta().empty());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Tid tid = static_cast<Tid>(r);
    EXPECT_EQ(t.is_live(tid), table.is_live(tid));
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(t.sel(tid, d), table.sel(tid, d));
      EXPECT_EQ(t.rank(tid, d), table.rank(tid, d));
    }
  }
}

TEST(SnapshotTest, GarbageIsRejected) {
  EXPECT_FALSE(DecodeTableSnapshot("not a snapshot").ok());
  std::string blob = EncodeTableSnapshot(MakeSeedTable(5));
  blob.resize(blob.size() - 3);  // structural size mismatch
  EXPECT_FALSE(DecodeTableSnapshot(blob).ok());
}

// ---------------------------------------------------------------------------
// DurabilityManager + RankCubeDb recovery

RankCubeDb::Options DurableOptions(FaultFs* fs, FsyncPolicy fsync) {
  RankCubeDb::Options options;
  options.engines = {"table_scan", "grid"};
  options.durability.data_dir = "/data";
  options.durability.fsync = fsync;
  options.durability.page_size = 256;
  options.durability.fs = fs;
  return options;
}

/// The deterministic mutation script the sweep + oracle share.
struct Mutation {
  bool is_insert;
  std::vector<int32_t> sel;  ///< insert
  std::vector<double> rank;  ///< insert
  Tid tid = 0;               ///< delete
};

std::vector<Mutation> MakeScript(int inserts, int seed_rows) {
  std::vector<Mutation> script;
  Rng rng(23);
  int born = 0;
  for (int i = 0; i < inserts; ++i) {
    script.push_back({true,
                      {static_cast<int32_t>(rng.UniformInt(4)),
                       static_cast<int32_t>(rng.UniformInt(3))},
                      {rng.Uniform01(), rng.Uniform01()},
                      0});
    ++born;
    if (i % 3 == 2) {
      // Delete something that certainly exists and is live: the row born
      // two inserts ago (never deleted before — the stride guarantees it).
      script.push_back(
          {false, {}, {}, static_cast<Tid>(seed_rows + born - 2)});
    }
  }
  return script;
}

/// Applies the first `epoch` mutations of `script` to a fresh copy of the
/// seed — the state a correct recovery at that epoch must equal.
Table OracleTable(const std::vector<Mutation>& script, uint64_t epoch) {
  Table table = MakeSeedTable(40);
  for (uint64_t i = 0; i < epoch; ++i) {
    const Mutation& m = script[i];
    if (m.is_insert) {
      EXPECT_TRUE(table.Insert(m.sel, m.rank).ok());
    } else {
      EXPECT_TRUE(table.Delete(m.tid).ok());
    }
  }
  return table;
}

std::vector<TopKQuery> QueryPanel() {
  return {
      QueryBuilder().OrderByLinear({1.0, 2.0}).Limit(10).Build(),
      QueryBuilder().Where(0, 2).OrderByLinear({1.0, 1.0}).Limit(8).Build(),
      QueryBuilder()
          .Where(0, 1)
          .Where(1, 2)
          .OrderByLinear({2.0, 0.5})
          .Limit(5)
          .Build(),
  };
}

/// Both dbs must answer every panel query with identical tuples.
void ExpectQueryParity(RankCubeDb* recovered, RankCubeDb* oracle) {
  for (const TopKQuery& q : QueryPanel()) {
    auto got = recovered->Query(q);
    auto want = oracle->Query(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_EQ(got.value().tuples.size(), want.value().tuples.size());
    for (size_t i = 0; i < want.value().tuples.size(); ++i) {
      EXPECT_EQ(got.value().tuples[i].tid, want.value().tuples[i].tid);
      EXPECT_EQ(got.value().tuples[i].score, want.value().tuples[i].score);
    }
  }
}

TEST(DurabilityTest, FreshCreateThenCleanRecover) {
  FaultFs fs;
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db.value()->recovery().created);
  EXPECT_FALSE(db.value()->read_only());

  ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
  ASSERT_TRUE(db.value()->Insert({2, 2}, {0.25, 0.75}).ok());
  ASSERT_TRUE(db.value()->Delete(5).ok());
  db.value().reset();  // process "dies" without checkpointing

  auto again = RankCubeDb::Open(MakeSeedTable(40),
                                DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value()->recovery().recovered);
  EXPECT_EQ(again.value()->recovery().replayed, 3u);
  EXPECT_FALSE(again.value()->read_only());
  EXPECT_EQ(again.value()->table().epoch(), 3u);
  EXPECT_EQ(again.value()->table().num_rows(), 42u);
  EXPECT_FALSE(again.value()->table().is_live(5));
}

TEST(DurabilityTest, KillPointSweepNeverLosesAckedWritesUnderFsyncAlways) {
  // Dry run: count the filesystem mutation ops the full script performs.
  const std::vector<Mutation> script = MakeScript(18, 40);
  int64_t total_ops = 0;
  {
    FaultFs fs;
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    fs.SetPlan(FaultPlan{});  // reset the op counter after open
    for (const Mutation& m : script) {
      if (m.is_insert) {
        ASSERT_TRUE(db.value()->Insert(m.sel, m.rank).ok());
      } else {
        ASSERT_TRUE(db.value()->Delete(m.tid).ok());
      }
    }
    total_ops = fs.ops();
  }
  ASSERT_GT(total_ops, 0);

  // Sweep: kill at every op between two mutations (and inside them).
  for (int64_t kill = 0; kill < total_ops; ++kill) {
    FaultFs fs;
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    FaultPlan plan;
    plan.crash_after_ops = kill;
    fs.SetPlan(plan);

    uint64_t acked = 0;
    for (const Mutation& m : script) {
      Status s = m.is_insert
                     ? db.value()->Insert(m.sel, m.rank).status()
                     : db.value()->Delete(m.tid);
      if (!s.ok()) break;  // the kill point fired mid-workload
      ++acked;
    }
    db.value().reset();
    fs.Crash();  // power cut + reboot

    auto recovered = RankCubeDb::Open(
        MakeSeedTable(40), DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(recovered.ok())
        << "kill=" << kill << ": " << recovered.status().ToString();
    EXPECT_FALSE(recovered.value()->read_only()) << "kill=" << kill;
    const uint64_t epoch = recovered.value()->table().epoch();
    // The headline guarantee: every acknowledged write survived; and the
    // db never invents mutations that were not issued.
    EXPECT_GE(epoch, acked) << "kill=" << kill;
    EXPECT_LE(epoch, script.size()) << "kill=" << kill;

    // Tuple-identical to the epoch-prefix oracle.
    RankCubeDb::Options ephemeral;
    ephemeral.engines = {"table_scan", "grid"};
    RankCubeDb oracle(OracleTable(script, epoch), ephemeral);
    ExpectQueryParity(recovered.value().get(), &oracle);
  }
}

TEST(DurabilityTest, FsyncOffLosesOnlyUnsyncedSuffix) {
  FaultFs fs;
  const std::vector<Mutation> script = MakeScript(12, 40);
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kOff));
    ASSERT_TRUE(db.ok());
    for (const Mutation& m : script) {
      if (m.is_insert) {
        ASSERT_TRUE(db.value()->Insert(m.sel, m.rank).ok());
      } else {
        ASSERT_TRUE(db.value()->Delete(m.tid).ok());
      }
    }
  }
  fs.Crash();
  auto recovered = RankCubeDb::Open(MakeSeedTable(40),
                                    DurableOptions(&fs, FsyncPolicy::kOff));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // With fsync=off every unsynced record may vanish — but what remains must
  // be a consistent prefix, never garbage.
  const uint64_t epoch = recovered.value()->table().epoch();
  EXPECT_LE(epoch, script.size());
  RankCubeDb::Options ephemeral;
  ephemeral.engines = {"table_scan", "grid"};
  RankCubeDb oracle(OracleTable(script, epoch), ephemeral);
  ExpectQueryParity(recovered.value().get(), &oracle);
}

TEST(DurabilityTest, FsyncFailureLatchesReadOnlyWithoutDiverging) {
  FaultFs fs;
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
  const uint64_t epoch_before = db.value()->table().epoch();

  FaultPlan plan;
  plan.fail_sync_at = 1;  // the Insert's Sync (op 0 is its Append)
  fs.SetPlan(plan);
  auto failed = db.value()->Insert({2, 2}, {0.25, 0.25});
  ASSERT_FALSE(failed.ok());

  // The failed write was never applied; the db is latched read-only with a
  // typed reason, but keeps answering queries at the consistent state.
  EXPECT_EQ(db.value()->table().epoch(), epoch_before);
  EXPECT_TRUE(db.value()->read_only());
  DbStats stats = db.value()->Stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_NE(stats.degraded_reason.find("wal append failed"),
            std::string::npos);
  auto rejected = db.value()->Insert({3, 1}, {0.5, 0.5});
  EXPECT_EQ(rejected.status().code(), Status::Code::kNotSupported);
  EXPECT_EQ(db.value()->Delete(0).code(), Status::Code::kNotSupported);
  EXPECT_TRUE(
      db.value()->Query(QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(5).Build())
          .ok());
}

TEST(DurabilityTest, MidWalCorruptionDegradesToReadOnlyAtLastGoodState) {
  FaultFs fs;
  uint64_t second_record_offset = 0;
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    second_record_offset =
        fs.FileSize(JoinPath("/data", WalFileName(0))).value();
    ASSERT_TRUE(db.value()->Insert({2, 2}, {0.25, 0.75}).ok());
    ASSERT_TRUE(db.value()->Insert({3, 0}, {0.75, 0.25}).ok());
  }
  // Rot record 2 (records 3 still parses beyond it => mid-log corruption).
  ASSERT_TRUE(fs.CorruptByte(JoinPath("/data", WalFileName(0)),
                             second_record_offset + 10)
                  .ok());
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(db.value()->read_only());
  EXPECT_EQ(db.value()->table().epoch(), 1u);  // the salvageable prefix
  DbStats stats = db.value()->Stats();
  EXPECT_TRUE(stats.read_only);
  EXPECT_FALSE(stats.degraded_reason.empty());
  EXPECT_EQ(db.value()->Insert({1, 1}, {0.5, 0.5}).status().code(),
            Status::Code::kNotSupported);
}

TEST(DurabilityTest, CheckpointRotatesWalAndSurvivesRestart) {
  FaultFs fs;
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    ASSERT_TRUE(db.value()->Insert({2, 2}, {0.25, 0.75}).ok());
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    EXPECT_EQ(db.value()->Stats().checkpoint_epoch, 2u);
    EXPECT_EQ(db.value()->Stats().wal_records, 0u);  // rotated
    // Mutations after the checkpoint land in the new WAL.
    ASSERT_TRUE(db.value()->Insert({3, 0}, {0.75, 0.25}).ok());
  }
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->recovery().checkpoint_epoch, 2u);
  EXPECT_EQ(db.value()->recovery().replayed, 1u);
  EXPECT_EQ(db.value()->table().epoch(), 3u);
  EXPECT_EQ(db.value()->table().num_rows(), 43u);
}

TEST(DurabilityTest, CompactCheckpointsAndRecoveryReplaysNothing) {
  FaultFs fs;
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    ASSERT_TRUE(db.value()->Delete(2).ok());
    auto report = db.value()->Compact();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->recovery().replayed, 0u);
  EXPECT_EQ(db.value()->recovery().checkpoint_epoch, 2u);
  EXPECT_EQ(db.value()->table().epoch(), 2u);
  EXPECT_FALSE(db.value()->table().is_live(2));
}

TEST(DurabilityTest, CompactWithNothingToAbsorbWritesNothing) {
  FaultFs fs;
  const std::vector<Mutation> script = MakeScript(6, 40);
  uint64_t generation = 0;
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    // A built structure too, so "fresh" is checked, not vacuous.
    QueryOptions force;
    force.force_engine = "grid";
    ASSERT_TRUE(db.value()->Query(QueryPanel()[0], force).ok());
    for (const Mutation& m : script) {
      ASSERT_TRUE(m.is_insert ? db.value()->Insert(m.sel, m.rank).ok()
                              : db.value()->Delete(m.tid).ok());
    }
    auto first = db.value()->Compact();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value().maintained, 1u);
    generation = db.value()->Stats().checkpoint_generation;

    fs.SetPlan(FaultPlan{});  // resets the op counter
    auto second = db.value()->Compact();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(fs.ops(), 0);  // no write, no fsync, no rename
    EXPECT_EQ(second.value().epoch, first.value().epoch);
    EXPECT_EQ(second.value().absorbed_inserts, 0u);
    EXPECT_EQ(second.value().absorbed_deletes, 0u);
    EXPECT_EQ(second.value().maintained + second.value().rebuilt, 0u);
    EXPECT_EQ(second.value().pages, 0u);
    EXPECT_EQ(db.value()->Stats().checkpoint_generation, generation);
  }
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->recovery().replayed, 0u);
  EXPECT_EQ(db.value()->Stats().checkpoint_generation, generation);
  Table oracle = OracleTable(script, script.size());
  ASSERT_EQ(db.value()->table().num_rows(), oracle.num_rows());
  for (Tid t = 0; t < static_cast<Tid>(oracle.num_rows()); ++t) {
    EXPECT_EQ(db.value()->table().is_live(t), oracle.is_live(t)) << t;
    EXPECT_EQ(db.value()->table().rank(t, 0), oracle.rank(t, 0)) << t;
  }
}

TEST(DurabilityTest, CrashDuringCheckpointRecoversFromOldOrNewState) {
  // Sweep kill points through Checkpoint(): at every op the manifest must
  // resolve to EITHER the old checkpoint + full WAL or the new checkpoint —
  // both reconstruct the same table.
  int64_t checkpoint_ops = 0;
  {
    FaultFs fs;
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    fs.SetPlan(FaultPlan{});
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    checkpoint_ops = fs.ops();
  }
  for (int64_t kill = 0; kill < checkpoint_ops; ++kill) {
    FaultFs fs;
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    FaultPlan plan;
    plan.crash_after_ops = kill;
    fs.SetPlan(plan);
    Status s = db.value()->Checkpoint();  // may die at the kill point
    (void)s;
    db.value().reset();
    fs.Crash();

    auto recovered = RankCubeDb::Open(
        MakeSeedTable(40), DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(recovered.ok())
        << "kill=" << kill << ": " << recovered.status().ToString();
    EXPECT_FALSE(recovered.value()->read_only()) << "kill=" << kill;
    EXPECT_EQ(recovered.value()->table().epoch(), 1u) << "kill=" << kill;
    EXPECT_EQ(recovered.value()->table().num_rows(), 41u) << "kill=" << kill;
  }
}

TEST(DurabilityTest, ReplayIsIdempotentOverDuplicateRecords) {
  // Apply the same WAL records to a table twice: the second pass must be a
  // clean no-op (seq <= epoch), leaving the table bit-identical.
  FaultFs fs;
  auto wal = WalWriter::Create(&fs, "/d/wal", 0, FsyncPolicy::kAlways);
  ASSERT_TRUE(wal.value()->AppendInsert(1, {1, 1}, {0.5, 0.5}).ok());
  ASSERT_TRUE(wal.value()->AppendInsert(2, {2, 2}, {0.25, 0.75}).ok());
  ASSERT_TRUE(wal.value()->AppendDelete(3, 40).ok());
  auto read = ReadWal(&fs, "/d/wal");
  ASSERT_TRUE(read.ok());

  Table table = MakeSeedTable(40);
  for (const WalRecord& rec : read.value().records) {
    auto applied = ApplyWalRecord(&table, rec);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(applied.value());
  }
  EXPECT_EQ(table.epoch(), 3u);
  const size_t rows = table.num_rows();
  const size_t live = table.num_live();
  for (const WalRecord& rec : read.value().records) {
    auto applied = ApplyWalRecord(&table, rec);
    ASSERT_TRUE(applied.ok());
    EXPECT_FALSE(applied.value()) << "duplicate must be skipped";
  }
  EXPECT_EQ(table.epoch(), 3u);
  EXPECT_EQ(table.num_rows(), rows);
  EXPECT_EQ(table.num_live(), live);

  auto gap = ApplyWalRecord(
      &table, WalRecord{DeltaStore::MutationKind::kDelete, 9, {}, {}, 0});
  EXPECT_EQ(gap.status().code(), Status::Code::kCorruption);
}

TEST(DurabilityTest, ValidationFailureLeavesNoPartialStateAnywhere) {
  FaultFs fs;
  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
  const uint64_t epoch = db.value()->table().epoch();
  const uint64_t wal_records = db.value()->Stats().wal_records;

  // Each rejected write must touch neither the table nor the WAL — a
  // logged-but-unapplied record would resurrect the bad row at recovery.
  EXPECT_FALSE(db.value()->Insert({99, 0}, {0.5, 0.5}).ok());   // domain
  EXPECT_FALSE(db.value()->Insert({1, 1}, {1.5, 0.5}).ok());    // range
  EXPECT_FALSE(db.value()->Insert({1}, {0.5, 0.5}).ok());       // arity
  EXPECT_FALSE(db.value()->Delete(9999).ok());                  // no such tid
  EXPECT_EQ(db.value()->table().epoch(), epoch);
  EXPECT_EQ(db.value()->Stats().wal_records, wal_records);
  EXPECT_FALSE(db.value()->read_only());  // rejections are not failures

  db.value().reset();
  auto again = RankCubeDb::Open(MakeSeedTable(40),
                                DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->table().epoch(), epoch);
}

TEST(DurabilityTest, BackingReadsVerifyCheckpointPagesAndLatchCorruption) {
  FaultFs fs;
  RankCubeDb::Options options = DurableOptions(&fs, FsyncPolicy::kAlways);
  // ranking_first does a random heap fetch per candidate — exactly the
  // single-page kTable misses the checkpoint backing serves. Tiny cache so
  // the misses reach the device.
  options.engines = {"table_scan", "ranking_first"};
  options.store.cache_pages = 4;
  auto db = RankCubeDb::Open(MakeSeedTable(200), options);
  ASSERT_TRUE(db.ok());
  auto q = QueryBuilder().OrderByLinear({1.0, 1.0}).Limit(10).Build();
  QueryOptions force;
  force.force_engine = "ranking_first";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.value()->Query(q, force).ok());
  }
  DbStats stats = db.value()->Stats();
  EXPECT_GT(stats.backing_reads, 0u);       // preads happened and verified
  EXPECT_EQ(stats.backing_corruptions, 0u);

  // Corrupt a checkpoint data page on disk, clear the cache so the next
  // miss must pread it, and watch the corruption counter flip.
  ASSERT_TRUE(
      fs.CorruptByte(JoinPath("/data", CheckpointFileName(0)), 300).ok());
  db.value()->store().ClearCache();
  uint64_t before = db.value()->Stats().backing_reads;
  for (int i = 0; i < 50 && db.value()->Stats().backing_corruptions == 0;
       ++i) {
    ASSERT_TRUE(db.value()->Query(q, force).ok());
  }
  stats = db.value()->Stats();
  EXPECT_GT(stats.backing_reads, before);
  EXPECT_GT(stats.backing_corruptions, 0u);
}

// ---------------------------------------------------------------------------
// Server surface: degraded STATS flag + typed write rejection over the wire

TEST(DurabilityServerTest, DegradedDbServesReadsAndRefusesWritesOverWire) {
  FaultFs fs;
  const std::string wal_path = JoinPath("/data", WalFileName(0));
  uint64_t second_record_offset = 0;
  {
    auto db = RankCubeDb::Open(MakeSeedTable(40),
                               DurableOptions(&fs, FsyncPolicy::kAlways));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Insert({1, 1}, {0.5, 0.5}).ok());
    second_record_offset = fs.FileSize(wal_path).value();
    ASSERT_TRUE(db.value()->Insert({2, 2}, {0.25, 0.75}).ok());
    ASSERT_TRUE(db.value()->Insert({3, 0}, {0.75, 0.25}).ok());
  }
  // Rot the MIDDLE of the WAL (record 3 still parses beyond the hole, so
  // this is mid-log corruption, not a recoverable torn tail) => reopen
  // lands read-only.
  ASSERT_TRUE(fs.CorruptByte(wal_path, second_record_offset + 10).ok());

  auto db = RankCubeDb::Open(MakeSeedTable(40),
                             DurableOptions(&fs, FsyncPolicy::kAlways));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value()->read_only());

  RankCubeServer server(db.value().get(), {});
  ASSERT_TRUE(server.Start().ok());
  auto client = RankCubeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  auto stats = client.value().Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().ok());
  std::string payload;
  for (const std::string& line : stats.value().lines) payload += line + "\n";
  EXPECT_NE(payload.find("read_only=1"), std::string::npos);
  EXPECT_NE(payload.find("degraded_reason="), std::string::npos);

  auto insert = client.value().Insert({1, 1}, {0.5, 0.5});
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert.value().code, WireCode::kNotSupported);

  WireQuerySpec spec;
  spec.k = 5;
  spec.order = "linear:1,1";
  auto tuples = client.value().QueryTuples(spec);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  server.Stop();
}

}  // namespace
}  // namespace rankcube
