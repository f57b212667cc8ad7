#include "merge/index_merge.h"

#include <deque>
#include <memory>
#include <queue>
#include <unordered_set>

#include "common/stopwatch.h"
#include "func/kernels/kernels.h"

namespace rankcube {

namespace {

struct State {
  double lb = 0.0;
  std::vector<uint32_t> nodes;
  std::vector<std::vector<int>> paths;
  bool is_leaf = false;
  bool examined = false;
  std::unique_ptr<Expander> expander;
};

struct GlobalEntry {
  double score;
  uint64_t seq;
  State* state;
  bool operator>(const GlobalEntry& o) const {
    return score > o.score || (score == o.score && seq > o.seq);
  }
};

class Engine {
 public:
  Engine(const Table& table, const std::vector<const MergeIndex*>& indices,
         const RankingFunctionPtr& function, int k,
         const MergeOptions& options, IoSession* io, ExecStats* stats)
      : table_(table),
        indices_(indices),
        f_(function),
        options_(options),
        io_(io),
        stats_(stats),
        topk_(k),
        scorer_(table, *function, &topk_, stats),
        accessed_(indices.size()),
        retrieved_leaves_(indices.size()),
        seen_mask_(table.num_rows(), 0) {
    full_mask_ = static_cast<uint8_t>((1u << indices.size()) - 1);
  }

  std::vector<ScoredTuple> Run() {
    Stopwatch watch;
    uint64_t pages_before = io_->TotalPhysical();

    State* root = NewState();
    root->nodes.reserve(indices_.size());
    root->paths.resize(indices_.size());
    Box box = Box::Unit(table_.num_rank_dims());
    bool all_leaf = true;
    for (const auto* idx : indices_) {
      root->nodes.push_back(idx->root());
      idx->WriteBox(idx->root(), &box);
      all_leaf = all_leaf && idx->IsLeaf(idx->root());
    }
    root->lb = f_->LowerBound(box);
    root->is_leaf = all_leaf;
    Push(root->lb, root);

    while (!heap_.empty()) {
      GlobalEntry top = heap_.top();
      if (topk_.KthScore() <= top.score) break;
      heap_.pop();
      State* s = top.state;
      if (!s->examined) {
        s->examined = true;
        ++stats_->states_examined;
      }
      if (s->is_leaf) {
        RetrieveLeaf(s);
        continue;
      }
      if (options_.mode == MergeOptions::Mode::kBaseline) {
        ExpandFully(s);
      } else {
        ExpandProgressively(s);
      }
      stats_->MergeMax(heap_.size() + local_entries_);
    }

    stats_->time_ms += watch.ElapsedMs();
    stats_->pages_read += io_->TotalPhysical() - pages_before;
    return topk_.Sorted();
  }

 private:
  State* NewState() {
    arena_.push_back(std::make_unique<State>());
    return arena_.back().get();
  }

  void Push(double score, State* s) {
    heap_.push({score, seq_++, s});
  }

  void ChargeNodeOnce(size_t i, uint32_t node) {
    if (accessed_[i].insert(node).second) {
      indices_[i]->ChargeAccess(io_, node);
    }
  }

  /// All covering signatures agree the state exists (§5.3.3 correction).
  bool StateExists(const State& s) {
    bool checked = false;
    for (size_t g = 0; g < options_.signatures.size(); ++g) {
      StateKey key =
          MakeStateKeySubset(s.paths, options_.signature_positions[g]);
      ChargeSignature(key);
      checked = true;
      if (!options_.signatures[g]->StateExists(key)) return false;
    }
    (void)checked;
    return true;
  }

  void ChargeSignature(const StateKey& key) {
    uint64_t h = StateKeyHash{}(key);
    if (signature_loaded_.insert(h).second) {
      io_->Access(IoCategory::kJoinSignature, h);
      ++stats_->signature_pages;
    }
  }

  /// Builds the empty-state filter for children of `s`.
  std::function<bool(const std::vector<int>&)> MakeChildFilter(State* s) {
    if (options_.signatures.empty()) return nullptr;
    // Pre-compute the per-signature parent keys once per expansion.
    auto keys = std::make_shared<std::vector<StateKey>>();
    for (size_t g = 0; g < options_.signatures.size(); ++g) {
      keys->push_back(
          MakeStateKeySubset(s->paths, options_.signature_positions[g]));
      ChargeSignature(keys->back());
    }
    const MergeOptions* opt = &options_;
    return [opt, keys](const std::vector<int>& coords) {
      for (size_t g = 0; g < opt->signatures.size(); ++g) {
        std::vector<int> sub;
        sub.reserve(opt->signature_positions[g].size());
        for (int pos : opt->signature_positions[g]) {
          sub.push_back(coords[pos]);
        }
        if (!opt->signatures[g]->ChildMayBeNonEmpty((*keys)[g], sub)) {
          return false;
        }
      }
      return true;
    };
  }

  State* MaterializeChild(State* parent, const ChildSpec& spec) {
    State* child = NewState();
    child->lb = spec.lb;
    child->nodes.resize(indices_.size());
    child->paths = parent->paths;
    bool all_leaf = true;
    for (size_t i = 0; i < indices_.size(); ++i) {
      if (spec.coords[i] == 0) {
        child->nodes[i] = parent->nodes[i];  // leaf joins as itself
      } else {
        child->nodes[i] =
            indices_[i]->Child(parent->nodes[i], spec.coords[i] - 1);
        child->paths[i].push_back(spec.coords[i]);
      }
      all_leaf = all_leaf && indices_[i]->IsLeaf(child->nodes[i]);
    }
    child->is_leaf = all_leaf;
    ++stats_->states_generated;
    return child;
  }

  void ExpandProgressively(State* s) {
    if (!s->expander) {
      if (!StateExists(*s)) return;  // bloom false positive corrected
      Box box = Box::Unit(table_.num_rank_dims());
      for (size_t i = 0; i < indices_.size(); ++i) {
        ChargeNodeOnce(i, s->nodes[i]);
        indices_[i]->WriteBox(s->nodes[i], &box);
      }
      ExpansionContext ctx;
      ctx.indices = &indices_;
      ctx.f = f_.get();
      ctx.child_ok = MakeChildFilter(s);
      ctx.local_entries = &local_entries_;
      s->expander = MakeExpander(s->nodes, box, ctx);
    }
    ChildSpec spec;
    if (s->expander->GetNext(&spec)) {
      Push(spec.lb, MaterializeChild(s, spec));
    }
    double peek = s->expander->PeekScore();
    if (peek < kInfScore) Push(peek, s);
  }

  void ExpandFully(State* s) {
    if (!StateExists(*s)) return;
    Box box = Box::Unit(table_.num_rank_dims());
    for (size_t i = 0; i < indices_.size(); ++i) {
      ChargeNodeOnce(i, s->nodes[i]);
      indices_[i]->WriteBox(s->nodes[i], &box);
    }
    auto filter = MakeChildFilter(s);
    // Full Cartesian product of child entries (Algorithm 4 line 8).
    std::vector<int> coords(indices_.size(), 0);
    std::vector<size_t> counts(indices_.size());
    for (size_t i = 0; i < indices_.size(); ++i) {
      counts[i] = indices_[i]->IsLeaf(s->nodes[i])
                      ? 1
                      : indices_[i]->NumChildren(s->nodes[i]);
    }
    std::vector<size_t> cursor(indices_.size(), 0);
    while (true) {
      for (size_t i = 0; i < indices_.size(); ++i) {
        coords[i] = indices_[i]->IsLeaf(s->nodes[i])
                        ? 0
                        : static_cast<int>(cursor[i]) + 1;
      }
      if (!filter || filter(coords)) {
        Box child_box = box;
        for (size_t i = 0; i < indices_.size(); ++i) {
          if (coords[i] > 0) {
            indices_[i]->WriteBox(
                indices_[i]->Child(s->nodes[i], coords[i] - 1), &child_box);
          }
        }
        ChildSpec spec;
        spec.lb = f_->LowerBound(child_box);
        spec.coords = coords;
        Push(spec.lb, MaterializeChild(s, spec));
      }
      size_t i = 0;
      for (; i < indices_.size(); ++i) {
        if (++cursor[i] < counts[i]) break;
        cursor[i] = 0;
      }
      if (i == indices_.size()) break;
    }
  }

  void RetrieveLeaf(State* s) {
    // Redundant state: every component leaf was retrieved before, so all of
    // its tuples have already been merged through the hashtable (§5.1.3).
    bool all_redundant = true;
    for (size_t i = 0; i < indices_.size(); ++i) {
      if (!retrieved_leaves_[i].count(s->nodes[i])) all_redundant = false;
    }
    if (all_redundant) return;

    std::vector<Tid> tids;
    merged_.clear();
    for (size_t i = 0; i < indices_.size(); ++i) {
      if (!retrieved_leaves_[i].insert(s->nodes[i]).second) continue;
      ChargeNodeOnce(i, s->nodes[i]);
      indices_[i]->LeafTids(s->nodes[i], &tids);
      uint8_t bit = static_cast<uint8_t>(1u << i);
      for (Tid t : tids) {
        uint8_t mask = (seen_mask_[t] |= bit);
        // Fully merged: all attribute values seen; batch the exact scoring.
        if (mask == full_mask_) merged_.push_back(t);
      }
    }
    scorer_.ScoreBlock(merged_.data(), merged_.size());
  }

  const Table& table_;
  const std::vector<const MergeIndex*>& indices_;
  RankingFunctionPtr f_;
  const MergeOptions& options_;
  IoSession* io_;
  ExecStats* stats_;
  TopKHeap topk_;
  kernels::FusedScorer scorer_;

  std::deque<std::unique_ptr<State>> arena_;
  std::priority_queue<GlobalEntry, std::vector<GlobalEntry>, std::greater<>>
      heap_;
  uint64_t seq_ = 0;
  size_t local_entries_ = 0;

  std::vector<std::unordered_set<uint32_t>> accessed_;
  std::vector<std::unordered_set<uint32_t>> retrieved_leaves_;
  std::unordered_set<uint64_t> signature_loaded_;
  std::vector<uint8_t> seen_mask_;
  uint8_t full_mask_;
  std::vector<Tid> merged_;  ///< fully-merged tids of one retrieval
};

}  // namespace

std::vector<ScoredTuple> IndexMergeTopK(
    const Table& table, const std::vector<const MergeIndex*>& indices,
    const RankingFunctionPtr& function, int k, const MergeOptions& options,
    IoSession* io, ExecStats* stats) {
  Engine engine(table, indices, function, k, options, io, stats);
  return engine.Run();
}

}  // namespace rankcube
