// Unit tests for workload generation: the WebSearch size distribution,
// Poisson arrivals, and incast bursts.

#include <gtest/gtest.h>

#include "topo/dumbbell.h"
#include "transports/gbn.h"
#include "workload/flowgen.h"
#include "workload/incast.h"
#include "workload/size_dist.h"

namespace dcp {
namespace {

TEST(SizeDist, WebSearchMatchesPaperSplit) {
  const SizeDist ws = SizeDist::websearch();
  // "60% of flows below 200 KB, 37% between 200 KB and 10 MB, 3% above."
  EXPECT_NEAR(ws.cdf_at(200'000), 0.60, 0.03);
  EXPECT_NEAR(ws.cdf_at(10'000'000), 0.97, 0.01);
  EXPECT_DOUBLE_EQ(ws.cdf_at(30'000'000), 1.0);
}

TEST(SizeDist, SamplesFollowCdf) {
  const SizeDist ws = SizeDist::websearch();
  Rng rng(5);
  int below_200k = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (ws.sample(rng) <= 200'000) ++below_200k;
  }
  EXPECT_NEAR(static_cast<double>(below_200k) / n, ws.cdf_at(200'000), 0.02);
}

TEST(SizeDist, MeanConsistentWithSampling) {
  const SizeDist ws = SizeDist::websearch();
  Rng rng(6);
  double sum = 0;
  const int n = 40'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(ws.sample(rng));
  EXPECT_NEAR(sum / n / ws.mean_bytes(), 1.0, 0.05);
}

TEST(SizeDist, FixedAlwaysReturnsSame) {
  const SizeDist f = SizeDist::fixed(4096);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(f.sample(rng), 4096u);
  EXPECT_DOUBLE_EQ(f.mean_bytes(), 4096.0);
}

struct WorkloadFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;

  WorkloadFixture() {
    star = build_star(net, 8, SwitchConfig{});
    net.set_factory(std::make_shared<GbnFactory>());
  }
};

TEST(FlowGen, GeneratesRequestedCountWithDistinctEndpoints) {
  WorkloadFixture f;
  FlowGenParams p;
  p.num_flows = 50;
  const auto ids = generate_poisson_flows(f.net, f.star.hosts, SizeDist::fixed(10'000), p);
  EXPECT_EQ(ids.size(), 50u);
  Time prev = 0;
  for (FlowId id : ids) {
    const auto& spec = f.net.record(id).spec;
    EXPECT_NE(spec.src, spec.dst);
    EXPECT_GE(spec.start_time, prev);  // arrivals non-decreasing
    prev = spec.start_time;
  }
}

TEST(FlowGen, ArrivalRateTracksLoad) {
  WorkloadFixture f;
  FlowGenParams p;
  p.num_flows = 2000;
  p.load = 0.5;
  const auto ids = generate_poisson_flows(f.net, f.star.hosts, SizeDist::fixed(100'000), p);
  const Time span = f.net.record(ids.back()).spec.start_time;
  // Offered bits / (capacity * span) should be ~load.
  const double offered = 2000.0 * 100'000 * 8;
  const double cap = 8 * 100e9 * (static_cast<double>(span) / kSecond);
  EXPECT_NEAR(offered / cap, 0.5, 0.08);
}

TEST(FlowGen, DeterministicForSeed) {
  WorkloadFixture f1, f2;
  FlowGenParams p;
  p.num_flows = 20;
  p.seed = 99;
  const auto a = generate_poisson_flows(f1.net, f1.star.hosts, SizeDist::websearch(), p);
  const auto b = generate_poisson_flows(f2.net, f2.star.hosts, SizeDist::websearch(), p);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(f1.net.record(a[i]).spec.bytes, f2.net.record(b[i]).spec.bytes);
    EXPECT_EQ(f1.net.record(a[i]).spec.start_time, f2.net.record(b[i]).spec.start_time);
  }
}

TEST(Incast, AllBurstsTargetVictim) {
  WorkloadFixture f;
  IncastParams p;
  p.fan_in = 6;
  p.bursts = 3;
  p.victim_index = 2;
  const auto ids = generate_incast(f.net, f.star.hosts, p);
  EXPECT_EQ(ids.size(), 18u);
  for (FlowId id : ids) {
    const auto& spec = f.net.record(id).spec;
    EXPECT_EQ(spec.dst, f.star.hosts[2]->id());
    EXPECT_NE(spec.src, spec.dst);
    EXPECT_FALSE(spec.background);
    EXPECT_GE(spec.group, 0);
  }
}

TEST(Incast, BurstsSeparatedByLoadInterval) {
  WorkloadFixture f;
  IncastParams p;
  p.fan_in = 4;
  p.bursts = 2;
  p.load = 0.1;
  p.bytes_per_sender = 64 * 1024;
  const auto ids = generate_incast(f.net, f.star.hosts, p);
  const Time t0 = f.net.record(ids[0]).spec.start_time;
  const Time t1 = f.net.record(ids[4]).spec.start_time;
  // Mean interval = burst_bits / (load * rate) ~ 2.1 ms at these numbers;
  // with exponential jitter just check it is "large".
  EXPECT_GT(t1 - t0, microseconds(50));
}

}  // namespace
}  // namespace dcp
