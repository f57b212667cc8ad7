// Reproduces Figures 4.8-4.13: signature-cube construction / size /
// compression / incremental maintenance, and query time + disk accesses
// against the Boolean and Ranking configurations (§4.4).
#include "bench/bench_common.h"

#include "common/stopwatch.h"
#include "core/signature_cube.h"
#include "engine/builtin_engines.h"
#include "index/btree.h"

namespace rankcube::bench {
namespace {

Table MakeData(uint64_t rows, int c) {
  SyntheticSpec spec;
  spec.num_rows = rows;
  spec.num_sel_dims = 3;  // Db = 3
  spec.cardinality = c;   // C = 100 default
  spec.num_rank_dims = 3; // Dp = 3
  return GenerateSynthetic(spec);
}

struct Ctx {
  Table table;
  PageStore store;
  IoSession io{&store};
  std::shared_ptr<SignatureCube> cube;  ///< size/compression figures
  std::unique_ptr<RankingEngine> signature;
  std::unique_ptr<RankingEngine> boolean_first;
  std::unique_ptr<RankingEngine> ranking_first;

  Ctx(uint64_t rows, int c) : table(MakeData(rows, c)) {
    cube = std::make_shared<SignatureCube>(table, io);
    signature = MakeSignatureCubeEngine(table, cube);
    boolean_first =
        MakeBooleanFirstEngine(table, std::make_shared<BooleanFirst>(table));
    // Ranking-first shares the cube's R-tree partition (aliasing pointer
    // keeps the cube alive).
    ranking_first = MakeRankingFirstEngine(
        table, std::shared_ptr<const RTree>(cube, &cube->rtree()));
  }

  const RankingEngine& Engine(const std::string& method) const {
    if (method == "boolean") return *boolean_first;
    if (method == "ranking") return *ranking_first;
    return *signature;
  }
};

std::shared_ptr<Ctx> GetCtx(uint64_t rows, int c = 100) {
  std::string key =
      "ch4:" + std::to_string(Rows(rows)) + ":" + std::to_string(c);
  return Cached<Ctx>(key,
                     [&] { return std::make_shared<Ctx>(Rows(rows), c); });
}

RankingFunctionPtr Function(const std::string& kind, Rng* rng) {
  if (kind == "linear") {
    return std::make_shared<LinearFunction>(std::vector<double>{
        1 + rng->Uniform01(), 1 + rng->Uniform01(), 1 + rng->Uniform01()});
  }
  if (kind == "distance") {
    return std::make_shared<QuadraticDistance>(
        std::vector<double>{1, 1, 1},
        std::vector<double>{rng->Uniform01(), rng->Uniform01(),
                            rng->Uniform01()});
  }
  return std::make_shared<SquaredLinear>(std::vector<double>{2, -1, -1});
}

std::vector<TopKQuery> Queries(const Table& t, int k,
                               const std::string& kind) {
  Rng rng(77);
  std::vector<TopKQuery> out;
  for (int i = 0; i < 20; ++i) {
    TopKQuery q;
    Tid anchor = static_cast<Tid>(rng.UniformInt(t.num_rows()));
    q.predicates = {{0, t.sel(anchor, 0)}, {1, t.sel(anchor, 1)}};
    q.function = Function(kind, &rng);
    q.k = k;
    out.push_back(std::move(q));
  }
  return out;
}

void RegisterAll() {
  const std::vector<uint64_t> kSizes = {100000, 200000, 500000};

  // Fig 4.8 / 4.9: construction time and materialized size w.r.t. T for
  // P-Cube (signature cubing), R-tree (tuple-at-a-time), B-trees.
  for (uint64_t t : kSizes) {
    Reg(
        "Fig4.8_4.9/build/T:" + std::to_string(t),
        [t](benchmark::State& state) {
          Table table = MakeData(Rows(t), 100);
          PageStore store;
  IoSession io{&store};
          for (auto _ : state) {
            SignatureCubeOptions opt;
            opt.bulk_load = false;  // the 2007 system inserts tuple by tuple
            SignatureCube cube(table, io, opt);
            state.counters["pcube_ms"] = cube.construction_ms();
            state.counters["rtree_ms"] = cube.rtree_build_ms();
            state.counters["pcube_bytes"] =
                static_cast<double>(cube.CompressedBytes());
            state.counters["rtree_bytes"] =
                static_cast<double>(cube.rtree().SizeBytes());
            Stopwatch watch;
            std::vector<std::unique_ptr<BTree>> btrees;
            size_t bbytes = 0;
            for (int d = 0; d < table.num_rank_dims(); ++d) {
              btrees.push_back(std::make_unique<BTree>(table, d, io));
              bbytes += btrees.back()->SizeBytes();
            }
            state.counters["btree_ms"] = watch.ElapsedMs();
            state.counters["btree_bytes"] = static_cast<double>(bbytes);
          }
        })
        ->Unit(benchmark::kMillisecond)->Iterations(1);
  }

  // Fig 4.10: signature size, baseline coding vs adaptive compression.
  for (int c : {10, 100, 1000}) {
    Reg(
        "Fig4.10/compression/C:" + std::to_string(c),
        [c](benchmark::State& state) {
          auto ctx = GetCtx(200000, c);
          for (auto _ : state) {
            state.counters["baseline_bytes"] =
                static_cast<double>(ctx->cube->BaselineBytes());
            state.counters["compressed_bytes"] =
                static_cast<double>(ctx->cube->CompressedBytes());
          }
        })
        ->Iterations(1);
  }

  // Fig 4.11: incremental update cost w.r.t. batch size and T.
  for (uint64_t t : {uint64_t{100000}, uint64_t{200000}}) {
    for (int batch : {1, 10, 100}) {
      Reg(
          "Fig4.11/incremental/T:" + std::to_string(t) +
              "/batch:" + std::to_string(batch),
          [t, batch](benchmark::State& state) {
            // Fresh cube per run (inserts mutate it).
            Table table = MakeData(Rows(t), 100);
            PageStore store;
  IoSession io{&store};
            SignatureCube cube(table, io);
            Rng rng(3);
            for (auto _ : state) {
              for (int i = 0; i < batch; ++i) {
                std::vector<int32_t> sel(3);
                std::vector<double> rank(3);
                for (int d = 0; d < 3; ++d) {
                  sel[d] = static_cast<int32_t>(rng.UniformInt(100));
                  rank[d] = rng.Uniform01();
                }
                (void)table.Insert(sel, rank);
              }
              Stopwatch watch;
              (void)cube.ApplyDelta(table.delta(), &io);
              state.counters["ms_per_tuple"] = watch.ElapsedMs() / batch;
            }
          })
          ->Unit(benchmark::kMillisecond)->Iterations(1);
    }
  }

  // Fig 4.12: execution time w.r.t. k (linear function).
  for (const char* method : {"boolean", "ranking", "signature"}) {
    for (int k : {10, 20, 50, 100}) {
      Reg(
          std::string("Fig4.12/") + method + "/k:" + std::to_string(k),
          [method, k](benchmark::State& state) {
            auto ctx = GetCtx(200000, 20);  // moderate selectivity: k <= matches
            auto qs = Queries(ctx->table, k, "linear");
            for (auto _ : state) {
              Publish(state,
                      RunWorkload(qs, &ctx->io, ctx->Engine(method)));
            }
          })
          ->Unit(benchmark::kMillisecond)->Iterations(1);
    }
  }

  // Fig 4.13: R-tree block accesses w.r.t. function kind, k = 100.
  for (const char* method : {"ranking", "signature"}) {
    for (const char* kind : {"linear", "distance", "general"}) {
      Reg(
          std::string("Fig4.13/") + method + "/f:" + kind,
          [method, kind](benchmark::State& state) {
            auto ctx = GetCtx(200000, 20);
            auto qs = Queries(ctx->table, 100, kind);
            for (auto _ : state) {
              ctx->io.ResetStats();
              auto res = RunWorkload(qs, &ctx->io, ctx->Engine(method));
              Publish(state, res);
              state.counters["rtree_pages"] = static_cast<double>(
                  ctx->io.stats(IoCategory::kRTree).physical /
                  qs.size());
            }
          })
          ->Unit(benchmark::kMillisecond)->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace rankcube::bench

int main(int argc, char** argv) {
  rankcube::bench::ParseScale(&argc, argv);
  rankcube::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
