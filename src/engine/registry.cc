#include "engine/registry.h"

#include <cassert>
#include <utility>

#include "engine/builtin_engines.h"
#include "index/btree.h"
#include "merge/join_signature.h"
#include "merge/merge_index.h"

namespace rankcube {
namespace {

/// Everything a from-scratch index_merge engine must keep alive.
struct MergeBundle {
  std::vector<std::unique_ptr<BTree>> btrees;
  std::vector<std::unique_ptr<MergeIndex>> indices;
  std::unique_ptr<JoinSignature> signature;
};

Result<std::unique_ptr<RankingEngine>> BuildIndexMerge(
    const Table& table, IoSession& io, const EngineBuildOptions& /*opts*/) {
  if (table.num_rank_dims() < 1) {
    return Status::InvalidArgument("index_merge needs ranking dimensions");
  }
  auto bundle = std::make_shared<MergeBundle>();
  std::vector<const MergeIndex*> raw;
  for (int d = 0; d < table.num_rank_dims(); ++d) {
    bundle->btrees.push_back(std::make_unique<BTree>(table, d, io));
    bundle->indices.push_back(
        std::make_unique<BTreeMergeIndex>(bundle->btrees.back().get(), d));
    raw.push_back(bundle->indices.back().get());
  }
  // Progressive merge over one join-signature spanning every index.
  MergeOptions merge;
  bundle->signature = std::make_unique<JoinSignature>(raw);
  merge.signatures = {bundle->signature.get()};
  std::vector<int> all_positions;
  for (size_t i = 0; i < raw.size(); ++i) {
    all_positions.push_back(static_cast<int>(i));
  }
  merge.signature_positions = {all_positions};
  return MakeIndexMergeEngine(table, std::move(raw), std::move(merge),
                              std::move(bundle));
}

void RegisterBuiltins(EngineRegistry* registry) {
  auto must = [registry](const std::string& name, EngineFactory factory) {
    Status s = registry->Register(name, std::move(factory));
    (void)s;
    assert(s.ok());
  };

  must("grid", [](const Table& table, IoSession& io,
                  const EngineBuildOptions& opts)
           -> Result<std::unique_ptr<RankingEngine>> {
    return MakeGridCubeEngine(
        table, std::make_shared<GridRankingCube>(table, io, opts.grid));
  });

  must("fragments", [](const Table& table, IoSession& io,
                       const EngineBuildOptions& opts)
           -> Result<std::unique_ptr<RankingEngine>> {
    return MakeFragmentsEngine(
        table,
        std::make_shared<RankingFragments>(table, io, opts.fragments));
  });

  must("signature", [](const Table& table, IoSession& io,
                       const EngineBuildOptions& opts)
           -> Result<std::unique_ptr<RankingEngine>> {
    return MakeSignatureCubeEngine(
        table, std::make_shared<SignatureCube>(table, io, opts.signature),
        /*lossy=*/false);
  });

  must("signature_lossy", [](const Table& table, IoSession& io,
                             const EngineBuildOptions& opts)
           -> Result<std::unique_ptr<RankingEngine>> {
    SignatureCubeOptions sig = opts.signature;
    sig.lossy_bloom = true;
    return MakeSignatureCubeEngine(
        table, std::make_shared<SignatureCube>(table, io, sig),
        /*lossy=*/true);
  });

  must("table_scan", [](const Table& table, IoSession&,
                        const EngineBuildOptions&)
           -> Result<std::unique_ptr<RankingEngine>> {
    return MakeTableScanEngine(table);
  });

  must("boolean_first", [](const Table& table, IoSession&,
                           const EngineBuildOptions&)
           -> Result<std::unique_ptr<RankingEngine>> {
    return MakeBooleanFirstEngine(table, std::make_shared<BooleanFirst>(table));
  });

  must("ranking_first", [](const Table& table, IoSession& io,
                           const EngineBuildOptions&)
           -> Result<std::unique_ptr<RankingEngine>> {
    if (table.num_rank_dims() < 1) {
      return Status::InvalidArgument("ranking_first needs ranking dimensions");
    }
    auto rtree = std::make_shared<RTree>(table.num_rank_dims(), io);
    rtree->BulkLoadSTR(table);
    rtree->ChargeBuild(table, io);
    return MakeRankingFirstEngine(table, std::move(rtree));
  });

  must("rank_mapping", [](const Table& table, IoSession&,
                          const EngineBuildOptions& opts)
           -> Result<std::unique_ptr<RankingEngine>> {
    std::vector<std::vector<int>> groups = opts.rank_mapping_groups;
    if (groups.empty()) {
      groups.emplace_back();
      for (int d = 0; d < table.num_sel_dims(); ++d) groups[0].push_back(d);
    }
    return MakeRankMappingEngine(table,
                                 std::make_shared<RankMapping>(table, groups));
  });

  must("index_merge", BuildIndexMerge);
}

}  // namespace

EngineRegistry& EngineRegistry::Global() {
  static EngineRegistry* instance = [] {
    auto* r = new EngineRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *instance;
}

Status EngineRegistry::Register(const std::string& name,
                                EngineFactory factory) {
  if (name.empty() || !factory) {
    return Status::InvalidArgument("engine registration needs name + factory");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!factories_.emplace(name, std::move(factory)).second) {
    return Status::InvalidArgument("engine '" + name + "' already registered");
  }
  return Status::OK();
}

bool EngineRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) > 0;
}

std::vector<std::string> EngineRegistry::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

Result<std::unique_ptr<RankingEngine>> EngineRegistry::Create(
    const std::string& name, const Table& table, IoSession& io,
    const EngineBuildOptions& options) const {
  EngineFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      // List what *is* registered: lookups are often composed
      // programmatically (planner catalogs, --engines flags), where "which
      // keys exist" is exactly the question the caller needs answered.
      std::string keys;
      for (const auto& [key, unused] : factories_) {
        (void)unused;
        if (!keys.empty()) keys += ", ";
        keys += key;
      }
      return Status::NotFound("no engine registered under '" + name +
                              "'; registered engines: " + keys);
    }
    factory = it->second;
  }
  return factory(table, io, options);
}

}  // namespace rankcube
