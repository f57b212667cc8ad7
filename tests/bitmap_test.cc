#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "bitmap/bitvector.h"
#include "bitmap/bloom.h"
#include "bitmap/codec.h"
#include "common/rng.h"

namespace rankcube {
namespace {

TEST(BitVectorTest, PushAndGet) {
  BitVector bv;
  bv.PushBit(true);
  bv.PushBit(false);
  bv.PushBit(true);
  EXPECT_EQ(bv.size(), 3u);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_FALSE(bv.Get(1));
  EXPECT_EQ(bv.ToString(), "101");
  EXPECT_EQ(bv.PopCount(), 2u);
  EXPECT_EQ(bv.LastOnePlusOne(), 3u);
}

TEST(BitVectorTest, AppendBitsMsbFirst) {
  BitVector bv;
  bv.AppendBits(0b1011, 4);
  EXPECT_EQ(bv.ToString(), "1011");
  EXPECT_EQ(bv.ReadBits(0, 4), 0b1011u);
  EXPECT_EQ(bv.ReadBits(1, 3), 0b011u);
}

TEST(BitVectorTest, SetAndSelect) {
  BitVector bv(10, false);
  bv.Set(3, true);
  bv.Set(7, true);
  EXPECT_EQ(bv.SelectOne(0), 3u);
  EXPECT_EQ(bv.SelectOne(1), 7u);
  EXPECT_EQ(bv.SelectOne(2), 10u);  // absent
  bv.Set(3, false);
  EXPECT_EQ(bv.PopCount(), 1u);
}

TEST(BitVectorTest, CrossWordBoundaries) {
  BitVector bv(200, false);
  bv.Set(63, true);
  bv.Set(64, true);
  bv.Set(199, true);
  EXPECT_TRUE(bv.Get(63));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_EQ(bv.LastOnePlusOne(), 200u);
  EXPECT_EQ(bv.PopCount(), 3u);
}

TEST(BitVectorTest, ConstructAllOnes) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.PopCount(), 70u);
}

TEST(CodecTest, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(2), 1);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(32), 5);
  EXPECT_EQ(Log2Ceil(33), 6);
}

// Round-trip: encode with a scheme, decode, compare (semantic bits).
void RoundTrip(const BitVector& arr, int M, CodecScheme scheme) {
  BitVector encoded;
  EncodeNodeWith(arr, M, scheme, &encoded);
  BitReader reader(encoded);
  BitVector decoded;
  ASSERT_TRUE(DecodeNode(&reader, M, &decoded).ok());
  ASSERT_EQ(decoded.size(), static_cast<size_t>(M));
  for (size_t i = 0; i < static_cast<size_t>(M); ++i) {
    bool expect = i < arr.size() && arr.Get(i);
    EXPECT_EQ(decoded.Get(i), expect)
        << "scheme=" << static_cast<int>(scheme) << " bit " << i << " of "
        << arr.ToString();
  }
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CodecRoundTripTest, AllSchemesAllDensities) {
  auto [M, density_pct] = GetParam();
  Rng rng(1000 + M * 7 + density_pct);
  static constexpr CodecScheme kAll[] = {
      CodecScheme::kBaseline, CodecScheme::kPiSparse, CodecScheme::kPiDense,
      CodecScheme::kRlSparse, CodecScheme::kRlDense,  CodecScheme::kPcSparse,
      CodecScheme::kPcDense,
  };
  for (int trial = 0; trial < 25; ++trial) {
    size_t len = 1 + rng.UniformInt(M);
    BitVector arr(len, false);
    for (size_t i = 0; i < len; ++i) {
      if (rng.UniformInt(100) < static_cast<uint64_t>(density_pct)) {
        arr.Set(i, true);
      }
    }
    for (CodecScheme s : kAll) RoundTrip(arr, M, s);
    // Adaptive also round-trips and is no larger than baseline.
    BitVector adaptive, baseline;
    size_t ab = EncodeNodeAdaptive(arr, M, &adaptive);
    size_t bb = EncodeNodeWith(arr, M, CodecScheme::kBaseline, &baseline);
    EXPECT_LE(ab, bb);
    BitReader reader(adaptive);
    BitVector decoded;
    ASSERT_TRUE(DecodeNode(&reader, M, &decoded).ok());
    for (size_t i = 0; i < static_cast<size_t>(M); ++i) {
      bool expect = i < arr.size() && arr.Get(i);
      EXPECT_EQ(decoded.Get(i), expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(4, 32, 204),
                       ::testing::Values(2, 10, 50, 90, 100)));

TEST(CodecTest, SparseArraysCompressWell) {
  const int M = 204;
  BitVector arr(M, false);
  arr.Set(3, true);
  arr.Set(100, true);
  BitVector adaptive, baseline;
  size_t ab = EncodeNodeAdaptive(arr, M, &adaptive);
  size_t bb = EncodeNodeWith(arr, M, CodecScheme::kBaseline, &baseline);
  EXPECT_LT(ab, bb / 2);  // 2 ones out of 204: positions beat raw bits
}

TEST(CodecTest, DenseArraysCompressWell) {
  const int M = 204;
  BitVector arr(M, true);
  arr.Set(17, false);
  BitVector adaptive;
  size_t ab = EncodeNodeAdaptive(arr, M, &adaptive);
  EXPECT_LT(ab, 60u);  // one zero out of 204
}

TEST(CodecTest, EmptyAndFullArrays) {
  for (int M : {8, 64}) {
    BitVector zero(static_cast<size_t>(M), false);
    BitVector ones(static_cast<size_t>(M), true);
    for (CodecScheme s :
         {CodecScheme::kBaseline, CodecScheme::kRlSparse,
          CodecScheme::kPiDense, CodecScheme::kPcDense}) {
      RoundTrip(zero, M, s);
      RoundTrip(ones, M, s);
    }
  }
}

// A node cut short anywhere (in its header, its length field or its coding
// region) is malformed: DecodeNode must say so with kCorruption instead of
// reading past the end of the stream.
TEST(CodecTest, EveryProperPrefixIsCorruption) {
  static constexpr CodecScheme kAll[] = {
      CodecScheme::kBaseline, CodecScheme::kPiSparse, CodecScheme::kPiDense,
      CodecScheme::kRlSparse, CodecScheme::kRlDense,  CodecScheme::kPcSparse,
      CodecScheme::kPcDense,
  };
  Rng rng(29);
  for (int M : {4, 32, 204}) {
    for (uint64_t density_pct : {10, 50, 90}) {
      BitVector arr(static_cast<size_t>(M), false);
      for (size_t i = 0; i < arr.size(); ++i) {
        if (rng.UniformInt(100) < density_pct) arr.Set(i, true);
      }
      std::vector<BitVector> encodings(1);
      EncodeNodeAdaptive(arr, M, &encodings[0]);
      for (CodecScheme s : kAll) {
        encodings.emplace_back();
        EncodeNodeWith(arr, M, s, &encodings.back());
      }
      for (const BitVector& full : encodings) {
        BitVector prefix;
        for (size_t len = 0; len < full.size(); ++len) {
          BitReader reader(prefix);
          BitVector decoded;
          EXPECT_EQ(DecodeNode(&reader, M, &decoded).code(),
                    Status::Code::kCorruption)
              << "M=" << M << " prefix " << len << " of " << full.ToString();
          prefix.PushBit(full.Get(len));
        }
      }
    }
  }
}

// The signature sizes nodes by arithmetic alone (NodeBits, AdaptiveNodeBits),
// so every length must be the one the encoder appends, fallbacks included,
// and the adaptive choice must still decode to the node.
TEST(CodecTest, ArithmeticLengthsMatchTheEncoder) {
  static constexpr CodecScheme kAll[] = {
      CodecScheme::kBaseline, CodecScheme::kPiSparse, CodecScheme::kPiDense,
      CodecScheme::kRlSparse, CodecScheme::kRlDense,  CodecScheme::kPcSparse,
      CodecScheme::kPcDense,
  };
  Rng rng(53);
  auto check = [](const BitVector& arr, int M) {
    size_t shortest = SIZE_MAX;
    BitVector first_shortest;  // the adaptive code: first minimum in order
    for (CodecScheme s : kAll) {
      BitVector encoded;
      const size_t encoded_bits = EncodeNodeWith(arr, M, s, &encoded);
      ASSERT_EQ(NodeBits(arr, M, s), encoded_bits)
          << "M=" << M << " scheme=" << static_cast<int>(s) << " "
          << arr.ToString();
      if (encoded_bits < shortest) {
        shortest = encoded_bits;
        first_shortest = encoded;
      }
    }
    BitVector adaptive;
    const size_t adaptive_bits = EncodeNodeAdaptive(arr, M, &adaptive);
    ASSERT_EQ(AdaptiveNodeBits(arr, M), shortest) << arr.ToString();
    ASSERT_EQ(adaptive_bits, shortest) << arr.ToString();
    ASSERT_EQ(adaptive.ToString(), first_shortest.ToString())
        << "M=" << M << " " << arr.ToString();
    BitReader reader(adaptive);
    BitVector decoded;
    ASSERT_TRUE(DecodeNode(&reader, M, &decoded).ok()) << arr.ToString();
    for (size_t i = 0; i < static_cast<size_t>(M); ++i) {
      ASSERT_EQ(decoded.Get(i), i < arr.size() && arr.Get(i))
          << "M=" << M << " bit " << i << " of " << arr.ToString();
    }
  };
  for (int M : {2, 3, 4, 7, 32, 146, 204, 255}) {
    for (size_t len = 0; len <= static_cast<size_t>(M); ++len) {
      for (uint64_t density_pct : {0, 2, 10, 50, 90, 98, 100}) {
        BitVector arr(len, false);
        for (size_t i = 0; i < len; ++i) {
          if (rng.UniformInt(100) < density_pct) arr.Set(i, true);
        }
        ASSERT_NO_FATAL_FAILURE(check(arr, M));
      }
      // Alternating runs of random lengths, starting with either value.
      BitVector arr(len, false);
      bool value = rng.UniformInt(2) == 1;
      const uint64_t longest = 1 + rng.UniformInt(32);
      for (size_t i = 0; i < len;) {
        const size_t run = 1 + rng.UniformInt(longest);
        for (size_t j = 0; j < run && i < len; ++j, ++i) arr.Set(i, value);
        value = !value;
      }
      ASSERT_NO_FATAL_FAILURE(check(arr, M));
    }
  }
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bf(1024, 4);
  for (uint64_t k = 0; k < 100; ++k) bf.Insert(k * 977);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(bf.MayContain(k * 977));
}

TEST(BloomTest, LowFalsePositiveRateWhenSized) {
  const size_t n = 200;
  BloomFilter bf(10 * n, BloomFilter::OptimalHashes(10 * n, n));
  for (uint64_t k = 0; k < n; ++k) bf.Insert(k);
  int fp = 0;
  const int probes = 5000;
  for (int i = 0; i < probes; ++i) {
    if (bf.MayContain(1000000 + i)) ++fp;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomTest, OptimalHashesFormula) {
  // b/n * ln 2 with b=10n -> ~6.9 -> 7, capped at 8.
  EXPECT_EQ(BloomFilter::OptimalHashes(1000, 100), 7);
  EXPECT_EQ(BloomFilter::OptimalHashes(100000, 100), 8);  // capped
  EXPECT_EQ(BloomFilter::OptimalHashes(100, 1000), 1);    // floor
}

}  // namespace
}  // namespace rankcube
