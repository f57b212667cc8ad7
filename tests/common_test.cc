#include <gtest/gtest.h>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace rankcube {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesStringify) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::NotSupported("x").ToString(), "NotSupported: x");
  EXPECT_EQ(Status::Corruption("x").ToString(), "Corruption: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
}

TEST(StatusTest, WithPrefixKeepsTheCodeOfEveryFactory) {
  for (const Status& s :
       {Status::InvalidArgument("m"), Status::NotFound("m"),
        Status::NotSupported("m"), Status::Corruption("m"),
        Status::OutOfRange("m"), Status::DeadlineExceeded("m"),
        Status::ResourceExhausted("m"), Status::Internal("m")}) {
    Status prefixed = s.WithPrefix("partition 'w0': ");
    EXPECT_EQ(prefixed.code(), s.code()) << s.ToString();
    EXPECT_EQ(prefixed.message(), "partition 'w0': m");
  }
  EXPECT_TRUE(Status::OK().WithPrefix("partition 'w0': ").ok());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, ZipfIsSkewedTowardSmallValues) {
  Rng rng(3);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 0.99) < 10) ++head;
  }
  // Uniform would put ~10% in the first decile; zipf(0.99) much more.
  EXPECT_GT(head, n / 4);
}

TEST(RngTest, ZipfZeroCardinality) { EXPECT_EQ(Rng(4).Zipf(0, 0.5), 0u); }

TEST(GeometryTest, IntervalBasics) {
  Interval iv{0.25, 0.75};
  EXPECT_TRUE(iv.Contains(0.5));
  EXPECT_FALSE(iv.Contains(0.8));
  EXPECT_DOUBLE_EQ(iv.Clamp(0.9), 0.75);
  EXPECT_DOUBLE_EQ(iv.Clamp(0.1), 0.25);
  EXPECT_DOUBLE_EQ(iv.width(), 0.5);
  EXPECT_TRUE(iv.Intersects({0.7, 0.9}));
  EXPECT_FALSE(iv.Intersects({0.76, 0.9}));
}

TEST(GeometryTest, UnitBoxContains) {
  Box b = Box::Unit(3);
  EXPECT_TRUE(b.Contains({0.0, 0.5, 1.0}));
  EXPECT_EQ(b.dims(), 3u);
  EXPECT_DOUBLE_EQ(b.Area(), 1.0);
}

TEST(GeometryTest, ExpandToInclude) {
  Box b = Box::EmptyFor(2);
  b.ExpandToInclude({0.2, 0.6});
  b.ExpandToInclude({0.4, 0.1});
  EXPECT_DOUBLE_EQ(b[0].lo, 0.2);
  EXPECT_DOUBLE_EQ(b[0].hi, 0.4);
  EXPECT_DOUBLE_EQ(b[1].lo, 0.1);
  EXPECT_DOUBLE_EQ(b[1].hi, 0.6);
  Box other = Box::EmptyFor(2);
  other.ExpandToInclude({0.9, 0.9});
  b.ExpandToInclude(other);
  EXPECT_DOUBLE_EQ(b[0].hi, 0.9);
}

TEST(GeometryTest, EmptyBoxHasZeroArea) {
  EXPECT_DOUBLE_EQ(Box::EmptyFor(2).Area(), 0.0);
}

TEST(StopwatchTest, MovesForward) {
  Stopwatch w;
  double a = w.ElapsedMs();
  double b = w.ElapsedMs();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace rankcube
