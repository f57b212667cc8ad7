// Signature-as-measure ranking cube (Ch4): an R-tree partition shared as
// template, per-cell signatures (by default one atomic cuboid per boolean
// dimension, §4.2.4/§4.3.3), node-level compression + partial-signature
// decomposition, incremental maintenance (Algorithm 2, through ApplyDelta),
// and Algorithm 3's branch-and-bound query with simultaneous ranking and
// boolean pruning.
#ifndef RANKCUBE_CORE_SIGNATURE_CUBE_H_
#define RANKCUBE_CORE_SIGNATURE_CUBE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "bitmap/bloom.h"
#include "core/rtree_search.h"
#include "core/signature.h"
#include "core/topk_query.h"
#include "cube/cell.h"
#include "index/rtree.h"
#include "storage/table.h"

namespace rankcube {

struct SignatureCubeOptions {
  /// Cuboids to materialize; empty = all atomic (single-dimension) cuboids.
  std::vector<std::vector<int>> cuboid_dim_sets;
  bool bulk_load = true;      ///< STR; false = tuple-at-a-time R-tree build
  int rtree_max_entries = 0;  ///< 0 = derive from page size

  /// §4.5 lossy compression: additionally build one bloom filter per cell
  /// over the signature's set SIDs. Querying with blooms admits false
  /// positives, so candidate tuples are verified against the base table
  /// (random accesses, charged) — trading space for extra verifications.
  bool lossy_bloom = false;
  double bloom_bits_per_entry = 10.0;  ///< ~1% false-positive rate
};

/// One cuboid's signatures: cell values -> signature.
struct SignatureCuboid {
  std::vector<int> dims;
  std::unordered_map<CellKey, Signature, CellKeyHash> sigs;
  std::unordered_map<CellKey, BloomFilter, CellKeyHash> blooms;  ///< §4.5
};

class SignatureCube {
 public:
  SignatureCube(const Table& table, IoSession& io,
                SignatureCubeOptions options = SignatureCubeOptions());

  /// Algorithm 3 with signature boolean pruning.
  Result<std::vector<ScoredTuple>> TopK(const TopKQuery& query, IoSession* io,
                                        ExecStats* stats) const;

  /// Builds the boolean pruner for a conjunction of predicates: one
  /// exactly-matching materialized cell when available, otherwise the
  /// online assembly over atomic cuboids (§4.3.3). Returns:
  ///  * ok(nullptr)  - no predicates: caller should use a NullPruner;
  ///  * ok(pruner)   - signature-backed pruner (empty-cell => prune-all);
  ///  * error        - a queried dimension has no cuboid.
  /// The signature pruner walks each cell signature from the root with one
  /// hash lookup per level and loads the partial signature of every node on
  /// the way, charging each (cell, partial) once per query. It remembers
  /// the nodes it admitted, so a tuple popped from an admitted leaf costs
  /// one lookup and one bit test per cell.
  Result<std::unique_ptr<BooleanPruner>> MakePruner(
      const std::vector<Predicate>& predicates) const;

  /// Absorbs the table mutations after built_epoch(): inserts through the
  /// R-tree + signature path (Algorithm 2), deletes through lazy R-tree
  /// removal with §4.2.5 bit clearing. Each touched cell's signature is
  /// re-compressed whole. Empty delta is a no-op.
  Status ApplyDelta(const DeltaStore& delta, IoSession* io);
  /// Table epoch this cube's contents reflect.
  uint64_t built_epoch() const { return built_epoch_; }

  const RTree& rtree() const { return *rtree_; }

  /// All materialized signature cuboids (dimension sets + cell counts) —
  /// the statistics the planner's cost model reads.
  const std::vector<SignatureCuboid>& cuboids() const { return cuboids_; }

  double construction_ms() const { return construction_ms_; }
  double rtree_build_ms() const { return rtree_build_ms_; }
  /// Physical pages the construction pass charged (scan + tree + sigs).
  uint64_t construction_pages() const { return construction_pages_; }
  size_t CompressedBytes() const;
  size_t BaselineBytes() const;
  /// Total bytes of the §4.5 lossy bloom signatures (0 unless enabled).
  size_t LossyBloomBytes() const;

  /// Query with the lossy bloom signatures (§4.5): bloom pruning plus
  /// per-candidate table verification. Requires lossy_bloom at build.
  Result<std::vector<ScoredTuple>> TopKLossy(const TopKQuery& query,
                                             IoSession* io,
                                             ExecStats* stats) const;

 private:
  const SignatureCuboid* FindCuboid(const std::vector<int>& dims) const;
  /// Applies R-tree path updates to every affected cell signature, one
  /// grouped pass per cuboid.
  void ApplyPathUpdates(const std::vector<PathUpdate>& updates, IoSession* io);

  const Table& table_;
  size_t page_size_;
  bool lossy_bloom_ = false;
  double bloom_bits_per_entry_ = 10.0;
  uint64_t built_epoch_ = 0;
  std::unique_ptr<RTree> rtree_;
  std::vector<SignatureCuboid> cuboids_;
  /// sorted dims -> index into cuboids_; O(1) FindCuboid per pruner source
  /// instead of a linear scan over the cuboid list.
  std::unordered_map<std::vector<int>, size_t, DimSetHash> cuboid_index_;
  double construction_ms_ = 0.0;
  double rtree_build_ms_ = 0.0;
  uint64_t construction_pages_ = 0;
};

}  // namespace rankcube

#endif  // RANKCUBE_CORE_SIGNATURE_CUBE_H_
