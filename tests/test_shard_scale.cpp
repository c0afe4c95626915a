// Fat-tree scale coverage for the sharded simulator: the DCP_SHARDS
// identity matrix on k=8/k=16 smoke workloads, the fault-plan serial
// fallback and the fat-tree-in-pool oracle fuzz batch.  Suite names start
// with ShardScale so CI's TSan job picks them up (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "check/invariant_oracle.h"
#include "harness/checkpoint.h"
#include "harness/scheme.h"
#include "sim/shard.h"
#include "stats/core_perf.h"
#include "topo/fattree.h"
#include "topo/network.h"
#include "workload/flowgen.h"

namespace dcp {
namespace {

/// FNV-1a over every flow's completion record plus the event count — the
/// same digest bench_scale gates on.
struct RunDigest {
  std::uint64_t hash = 1469598103934665603ull;
  std::uint64_t events = 0;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  bool operator==(const RunDigest&) const = default;
};

struct FatTreeRunConfig {
  int k = 8;
  int shards = 1;
  std::size_t num_flows = 48;
  Time max_time = milliseconds(2);
  bool oracle = false;
};

RunDigest run_fattree(const FatTreeRunConfig& c) {
  ShardGroup group(c.shards);
  Logger log(LogLevel::kOff);
  Network net(group, log);

  SchemeSetup s = make_scheme(SchemeKind::kDcp, SchemeOptions{});
  s.sw.inject_loss_rate = 0.005;
  FatTreeParams fp;
  fp.k = c.k;
  fp.sw = s.sw;
  FatTreeTopology topo = build_fattree(net, fp);
  apply_scheme(net, s);

  FlowGenParams fg;
  fg.load = 0.4;
  fg.num_flows = c.num_flows;
  fg.seed = 11;
  generate_poisson_flows(net, topo.hosts, SizeDist::websearch(), fg);

  std::unique_ptr<InvariantOracle> ora;
  if (c.oracle) ora = std::make_unique<InvariantOracle>(net);
  net.run_until_done(c.max_time);
  if (ora) {
    ora->finalize();
    EXPECT_TRUE(ora->ok()) << ora->summary();
  }

  RunDigest d;
  for (const FlowRecord& rec : net.records()) {
    d.mix(static_cast<std::uint64_t>(rec.tx_done));
    d.mix(static_cast<std::uint64_t>(rec.rx_done));
    d.mix(rec.sender.data_packets_sent);
    d.mix(rec.sender.retransmitted_packets);
    d.mix(rec.sender.timeouts);
    d.mix(rec.receiver.bytes_received);
    d.mix(rec.receiver.out_of_order_packets);
  }
  d.events = group.events_processed();
  return d;
}

// ---------------------------------------------------------------------------
// Digest + events identity matrix
// ---------------------------------------------------------------------------

TEST(ShardScaleDigest, FatTreeK8IdentityAcrossShardCounts) {
  FatTreeRunConfig c;
  c.k = 8;  // 128 hosts, 8 pods: 2 and 8 shards both cut at agg<->core
  const RunDigest serial = run_fattree(c);
  EXPECT_GT(serial.events, 0u);
  for (int shards : {2, 8}) {
    FatTreeRunConfig cs = c;
    cs.shards = shards;
    const RunDigest d = run_fattree(cs);
    EXPECT_EQ(d, serial) << "DCP_SHARDS=" << shards << " diverged from serial";
  }
}

TEST(ShardScaleDigest, FatTreeK16SmokeIdentityAcrossShardCounts) {
  // 1024 hosts — construction dominates, so the workload is tiny; the
  // point is the partitioning at real scale, not throughput.
  FatTreeRunConfig c;
  c.k = 16;
  c.num_flows = 24;
  c.max_time = microseconds(500);
  const RunDigest serial = run_fattree(c);
  EXPECT_GT(serial.events, 0u);
  for (int shards : {2, 8}) {
    FatTreeRunConfig cs = c;
    cs.shards = shards;
    const RunDigest d = run_fattree(cs);
    EXPECT_EQ(d, serial) << "DCP_SHARDS=" << shards << " diverged from serial";
  }
}

TEST(ShardScaleDigest, OracleArmedShardedFatTreeStaysClean) {
  FatTreeRunConfig c;
  c.k = 8;
  c.shards = 8;
  c.num_flows = 32;
  c.oracle = true;
  const RunDigest d = run_fattree(c);
  EXPECT_GT(d.events, 0u);
}

// ---------------------------------------------------------------------------
// Fault plans force the serial fallback
// ---------------------------------------------------------------------------

/// Scoped DCP_SHARDS override (the fuzz runner reads the variable when it
/// builds its world).
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(int shards) {
    const char* prev = std::getenv("DCP_SHARDS");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv("DCP_SHARDS", std::to_string(shards).c_str(), 1);
  }
  ~ScopedShardsEnv() {
    if (had_prev_) {
      setenv("DCP_SHARDS", prev_.c_str(), 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

FuzzScenario fattree_fault_scenario() {
  FuzzScenario s;
  s.scheme = SchemeKind::kDcp;
  s.fattree_k = 4;  // 16 hosts
  s.max_time = milliseconds(10);
  for (int i = 0; i < 4; ++i) {
    FuzzFlow f;
    f.src = i;
    f.dst = 8 + i;  // cross-pod: the flow traverses the agg<->core cut
    f.bytes = 96 * 1024;
    f.start = microseconds(5.0 * i);
    s.flows.push_back(f);
  }
  FaultAction a;
  a.kind = FaultKind::kLinkFlap;
  a.at = microseconds(40);
  a.duration = microseconds(100);
  a.sw = 0;
  a.port = FaultAction::kAll;
  s.faults.actions.push_back(a);
  return s;
}

TEST(ShardScaleFallback, FaultPlanRunsSerialRegardlessOfShardsEnv) {
  // The injector has no shard ordering story, so a fault plan must force
  // the serial path: DCP_SHARDS=8 and an explicit serial run have to be
  // bit-identical, and the world's group must really be size 1.
  const FuzzScenario s = fattree_fault_scenario();
  WorldDigest serial, sharded_env;
  {
    ScopedShardsEnv env(1);
    SimWorld w(fuzz_world_spec(s, {}));
    w.run_until_done();
    serial = w.digest();
    EXPECT_EQ(w.shard_count(), 1);
  }
  {
    ScopedShardsEnv env(8);
    SimWorld w(fuzz_world_spec(s, {}));
    w.run_until_done();
    sharded_env = w.digest();
    EXPECT_EQ(w.shard_count(), 1) << "fault plan did not force serial fallback";
  }
  EXPECT_EQ(serial, sharded_env);
}

TEST(ShardScaleFallback, FaultFreeFatTreeScenarioHonoursShardsEnv) {
  FuzzScenario s = fattree_fault_scenario();
  s.faults.actions.clear();
  WorldDigest serial, sharded;
  {
    ScopedShardsEnv env(1);
    SimWorld w(fuzz_world_spec(s, {}));
    w.run_until_done();
    serial = w.digest();
  }
  {
    ScopedShardsEnv env(4);
    SimWorld w(fuzz_world_spec(s, {}));
    w.run_until_done();
    sharded = w.digest();
    EXPECT_EQ(w.shard_count(), 4);  // clamp is the pod count
  }
  EXPECT_EQ(serial, sharded);
}

// ---------------------------------------------------------------------------
// Oracle fuzz batch with fat-tree in the scenario pool
// ---------------------------------------------------------------------------

TEST(ShardScaleFuzz, HundredSeedOracleBatchWithFatTreePool) {
  // Every odd seed re-pools the generated scenario onto a k=4 fat-tree
  // (the CLOS host-index range is a subset of the fat-tree's, so flows
  // stay valid).  Under DCP_SHARDS=8, fault-free scenarios run sharded
  // (clamped to the partition-unit count) and fault plans fall back to
  // serial — the oracle must stay clean either way.
  ScopedShardsEnv env(8);
  int fattree_runs = 0, sharded_eligible = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    FuzzScenario s = generate_fuzz_scenario(seed);
    if (seed % 2 == 1) {
      s.fattree_k = 4;
      ++fattree_runs;
    }
    if (!s.faults.has_effect()) ++sharded_eligible;
    const FuzzVerdict v = run_fuzz_scenario(s, {});
    EXPECT_FALSE(v.violated) << "seed " << seed << " (fattree_k=" << s.fattree_k
                             << "): " << v.message << "\n"
                             << v.trace;
  }
  EXPECT_EQ(fattree_runs, 50);
  EXPECT_GT(sharded_eligible, 0);
}

TEST(ShardScaleFuzz, FatTreeScenarioReproRoundTrips) {
  FuzzScenario s = fattree_fault_scenario();
  const std::string text = write_fuzz_repro(s, FuzzVerdict{});
  std::string err;
  const auto parsed = parse_fuzz_scenario(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, s);
  EXPECT_EQ(parsed->num_hosts(), 16);
}

}  // namespace
}  // namespace dcp
