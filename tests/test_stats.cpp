// Unit tests for percentile estimation, FCT bucketing and goodput math.

#include <gtest/gtest.h>

#include "stats/fct_stats.h"
#include "stats/goodput.h"
#include "stats/percentile.h"

namespace dcp {
namespace {

TEST(Percentile, ExactOnKnownData) {
  PercentileEstimator p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
  EXPECT_NEAR(p.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(p.percentile(95), 95.05, 0.1);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(Percentile, EmptyReturnsZero) {
  PercentileEstimator p;
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_TRUE(p.empty());
}

TEST(Percentile, InterleavedAddAndQuery) {
  PercentileEstimator p;
  p.add(10);
  EXPECT_DOUBLE_EQ(p.percentile(50), 10.0);
  p.add(20);
  p.add(30);
  EXPECT_DOUBLE_EQ(p.percentile(100), 30.0);
}

TEST(SizeClasses, PaperBoundaries) {
  EXPECT_EQ(size_class_of(10'000), SizeClass::kSmall);
  EXPECT_EQ(size_class_of(50 * 1024), SizeClass::kSmall);
  EXPECT_EQ(size_class_of(100'000), SizeClass::kMedium);
  EXPECT_EQ(size_class_of(2 * 1024 * 1024), SizeClass::kMedium);
  EXPECT_EQ(size_class_of(5'000'000), SizeClass::kLarge);
}

FlowRecord fake_record(std::uint64_t bytes, Time fct) {
  FlowRecord r;
  r.spec.bytes = bytes;
  r.spec.start_time = 0;
  r.rx_done = fct;
  r.tx_done = fct;
  return r;
}

TEST(FctStats, SlowdownClampedAtOne) {
  FctStats s({1000, 1'000'000});
  s.add(fake_record(500, microseconds(1)), microseconds(2));  // faster than ideal
  EXPECT_DOUBLE_EQ(s.overall().percentile(50), 1.0);
}

TEST(FctStats, BucketsBySize) {
  FctStats s({1000, 1'000'000});
  s.add(fake_record(500, microseconds(4)), microseconds(2));        // bucket 0, slowdown 2
  s.add(fake_record(500'000, microseconds(30)), microseconds(10));  // bucket 1, slowdown 3
  s.add(fake_record(5'000'000, microseconds(40)), microseconds(10));  // catch-all, slowdown 4
  const auto p50 = s.per_bucket_percentile(50);
  ASSERT_EQ(p50.size(), 3u);
  EXPECT_DOUBLE_EQ(p50[0], 2.0);
  EXPECT_DOUBLE_EQ(p50[1], 3.0);
  EXPECT_DOUBLE_EQ(p50[2], 4.0);
  EXPECT_EQ(s.flows(), 3u);
}

TEST(FctStats, EmptyBucketsReportZero) {
  FctStats s({1000, 1'000'000});
  s.add(fake_record(500, microseconds(4)), microseconds(2));  // bucket 0, slowdown 2
  EXPECT_EQ(s.per_bucket_percentile(50), (std::vector<double>{2.0, 0.0, 0.0}));
  EXPECT_EQ(s.per_bucket_percentile(99), (std::vector<double>{2.0, 0.0, 0.0}));
}

TEST(FctStats, BucketEdgesEndWithTheCatchAll) {
  const FctStats s({1000, 1'000'000});
  EXPECT_EQ(s.bucket_edges(), (std::vector<std::uint64_t>{1000, 1'000'000, UINT64_MAX}));
}

TEST(FctStats, IncompleteFlowsIgnored) {
  FctStats s({1000});
  FlowRecord r = fake_record(500, microseconds(4));
  r.tx_done = -1;
  s.add(r, microseconds(1));
  EXPECT_EQ(s.flows(), 0u);
}

TEST(FctStats, DefaultEdgesMatchPaperAxis) {
  const auto e = FctStats::default_edges();
  EXPECT_EQ(e.front(), 3'000u);
  EXPECT_EQ(e.back(), 29'995'000u);
  EXPECT_EQ(e.size(), 20u);
}

TEST(Goodput, ComputesFromRecord) {
  FlowRecord r = fake_record(12'500'000, milliseconds(1));  // 12.5 MB in 1 ms = 100 Gb/s
  EXPECT_NEAR(flow_goodput_gbps(r), 100.0, 0.01);
  EXPECT_NEAR(flow_rx_goodput_gbps(r), 100.0, 0.01);
}

TEST(Goodput, ZeroForIncomplete) {
  FlowRecord r = fake_record(1000, milliseconds(1));
  r.tx_done = -1;
  EXPECT_DOUBLE_EQ(flow_goodput_gbps(r), 0.0);
}

}  // namespace
}  // namespace dcp
