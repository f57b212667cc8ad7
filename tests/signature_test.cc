#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/signature.h"

namespace rankcube {
namespace {

// Paths from Table 4.1 (the thesis's running example, M = 2).
const std::vector<std::vector<int>> kPaths = {
    {1, 1, 1},  // t1 (a1, b1)
    {1, 1, 2},  // t2 (a2, b2)
    {1, 2, 1},  // t3 (a1, b1)
    {1, 2, 2},  // t4 (a3, b3)
    {2, 1, 1},  // t5 (a4, b1)
    {2, 1, 2},  // t6 (a2, b3)
    {2, 2, 1},  // t7 (a4, b2)
    {2, 2, 2},  // t8 (a3, b3)
};

// SID of a path in the running example (M = 2).
Sid S(const std::vector<int>& path) {
  return SidOfPath(path, path.size(), 2);
}

TEST(SidTest, PaperExample) {
  // §4.2.1: with M = 2, the path of node N3 is <1,1> and its SID is 4.
  EXPECT_EQ(SidOfPath({1, 1}, 2, 2), 4u);
  EXPECT_EQ(SidOfPath({}, 0, 2), 0u);   // root
  EXPECT_EQ(SidOfPath({1}, 1, 2), 1u);  // N1
  EXPECT_EQ(SidOfPath({2}, 1, 2), 2u);  // N2
  EXPECT_EQ(ChildSid(S({1}), 1, 2), 4u);  // N3 is N1's first child
}

TEST(SidTest, PathOfSidInvertsSidOfPath) {
  int path[kMaxSidDepth];
  EXPECT_EQ(PathOfSid(0, 2, path), 0u);  // root
  for (int M : {2, 4, 146}) {
    Rng rng(static_cast<uint64_t>(M));
    for (int i = 0; i < 200; ++i) {
      std::vector<int> want(1 + rng.UniformInt(6));
      for (int& p : want) p = 1 + static_cast<int>(rng.UniformInt(M));
      Sid sid = SidOfPath(want, want.size(), M);
      size_t len = PathOfSid(sid, M, path);
      ASSERT_EQ(std::vector<int>(path, path + len), want) << "M=" << M;
    }
  }
}

TEST(SignatureTest, A1SignatureFromFigure43) {
  // (A = a1) covers t1 <1,1,1> and t3 <1,2,1>.
  Signature sig(2);
  sig.SetPath(kPaths[0]);
  sig.SetPath(kPaths[2]);
  // Root: left child only.
  EXPECT_TRUE(sig.Test(S({1})));
  EXPECT_FALSE(sig.Test(S({2})));
  // N1: both children (N3 via t1, N4 via t3).
  EXPECT_TRUE(sig.Test(S({1, 1})));
  EXPECT_TRUE(sig.Test(S({1, 2})));
  // Leaf entries.
  EXPECT_TRUE(sig.Test(S({1, 1, 1})));
  EXPECT_FALSE(sig.Test(S({1, 1, 2})));
  EXPECT_TRUE(sig.Test(S({1, 2, 1})));
  EXPECT_FALSE(sig.Test(S({1, 2, 2})));
}

TEST(SignatureTest, ClearPathPropagatesEmptiness) {
  Signature sig(2);
  sig.SetPath({1, 1, 1});
  sig.SetPath({1, 2, 1});
  sig.ClearPath({1, 1, 1});
  EXPECT_FALSE(sig.Test(S({1, 1, 1})));
  EXPECT_FALSE(sig.Test(S({1, 1})));  // N3 branch emptied
  EXPECT_TRUE(sig.Test(S({1, 2, 1})));  // sibling untouched
  sig.ClearPath({1, 2, 1});
  EXPECT_TRUE(sig.empty());  // everything propagated to the root
}

TEST(SignatureTest, SetPathAfterClearRestores) {
  Signature sig(2);
  sig.SetPath({2, 1, 2});
  EXPECT_TRUE(sig.Test(S({2, 1, 2})));
  sig.ClearPath({2, 1, 2});
  EXPECT_TRUE(sig.empty());
  sig.SetPath({2, 1, 2});
  EXPECT_TRUE(sig.Test(S({2, 1, 2})));
}

TEST(SignatureTest, TestPrefixSemantics) {
  Signature sig(2);
  sig.SetPath({1, 2, 1});
  EXPECT_TRUE(sig.Test(S({})));  // the root: trivially true
  EXPECT_TRUE(sig.Test(S({1})));
  EXPECT_TRUE(sig.Test(S({1, 2})));
  EXPECT_TRUE(sig.Test(S({1, 2, 1})));
  EXPECT_FALSE(sig.Test(S({1, 1})));
}

// The walk the signature pruner loads partials along: every node on the
// path, root first and the addressed node included, up to the first zero
// bit; a tuple's SID names no node of its own.
TEST(SignatureTest, WalkVisitsThePathRootFirst) {
  Signature sig(2);
  sig.SetPath({1, 2, 1});
  sig.SetPath({1, 1, 2});
  auto walk = [&](Sid sid, bool want) {
    std::vector<const Signature::NodeEntry*> seen;
    EXPECT_EQ(sig.Walk(sid, [&](const Signature::NodeEntry& node) {
      seen.push_back(&node);
    }), want);
    return seen;
  };
  const auto* root = sig.Find(0);
  const auto* n1 = sig.Find(S({1}));
  const auto* n4 = sig.Find(S({1, 2}));
  ASSERT_NE(n4, nullptr);
  EXPECT_EQ(sig.Find(S({2})), nullptr);
  EXPECT_EQ(walk(0, true), (std::vector{root}));
  EXPECT_EQ(walk(S({1, 2}), true), (std::vector{root, n1, n4}));
  EXPECT_EQ(walk(S({1, 2, 1}), true), (std::vector{root, n1, n4}));
  EXPECT_EQ(walk(S({1, 2, 2}), false), (std::vector{root, n1, n4}));
  EXPECT_EQ(walk(S({2, 1}), false), (std::vector{root}));
}

// Partials a compressed signature is cut into (indices are dense from 0).
size_t NumPartials(const Signature& sig) {
  size_t n = 0;
  for (const auto& [sid, node] : sig.nodes()) {
    (void)sid;
    n = std::max(n, node.partial + 1);
  }
  return n;
}

TEST(SignatureTest, CompressionAccounting) {
  // Larger fanout: build from many random-ish paths.
  const int M = 32;
  Signature sig(M);
  for (int i = 0; i < 500; ++i) {
    sig.SetPath({1 + (i * 7) % M, 1 + (i * 13) % M, 1 + i % M});
  }
  sig.Compress(4096);
  EXPECT_GT(NumPartials(sig), 0u);
  EXPECT_GT(sig.CompressedBytes(), 0u);
  EXPECT_LE(sig.CompressedBytes(), sig.BaselineBytes());
  // Every node is stored in exactly one partial.
  for (const auto& [sid, node] : sig.nodes()) {
    EXPECT_NE(sig.PartialOf(sid), SIZE_MAX);
    EXPECT_EQ(sig.PartialOf(sid), node.partial);
  }
}

TEST(SignatureTest, SmallPagesMakeMorePartials) {
  const int M = 16;
  Rng rng(17);
  Signature sig(M);
  for (int i = 0; i < 4000; ++i) {
    sig.SetPath({static_cast<int>(rng.UniformInt(M)) + 1,
                 static_cast<int>(rng.UniformInt(M)) + 1,
                 static_cast<int>(rng.UniformInt(M)) + 1});
  }
  sig.Compress(8192);
  size_t big = NumPartials(sig);
  size_t bytes = sig.CompressedBytes();
  sig.Compress(128);
  EXPECT_GT(NumPartials(sig), big);
  EXPECT_EQ(sig.CompressedBytes(), bytes);  // the cut moves, the codes don't
}

TEST(SignatureTest, EmptySignatureCompressesToNothing) {
  Signature sig(8);
  sig.Compress(4096);
  EXPECT_EQ(NumPartials(sig), 0u);
  EXPECT_EQ(sig.CompressedBytes(), 0u);
  EXPECT_EQ(sig.PartialOf(0), SIZE_MAX);
}

}  // namespace
}  // namespace rankcube
