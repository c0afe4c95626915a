// The parallel sweep engine: results are indexed by trial (never by
// completion order), every trial runs exactly once, DCP_JOBS and
// DCP_SHARDS semantics hold, and — the property the whole evaluation
// suite rests on — a sweep run with 8 workers is bit-identical to the
// same sweep run serially.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"

namespace dcp {
namespace {

TEST(Sweep, ResultsIndexedByTrialNotCompletionOrder) {
  SweepRunner pool(4);
  pool.set_progress(false);
  // Trials finish in scrambled order (later indices do less work), but the
  // results vector must still map i -> f(i).
  const std::vector<std::size_t> out = pool.run(64, [](std::size_t i) {
    volatile std::size_t spin = (64 - i) * 1000;
    while (spin > 0) spin = spin - 1;
    return i * i;
  });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Sweep, EveryTrialRunsExactlyOnce) {
  SweepRunner pool(8);
  pool.set_progress(false);
  std::vector<std::atomic<int>> hits(100);
  pool.run_indexed(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
}

TEST(Sweep, SingleJobRunsEverythingOnCallerThread) {
  SweepRunner pool(1);
  pool.set_progress(false);
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<bool> on_caller =
      pool.run(16, [&](std::size_t) { return std::this_thread::get_id() == caller; });
  for (bool b : on_caller) EXPECT_TRUE(b);
}

TEST(Sweep, PoolIsReusableAcrossSweeps) {
  SweepRunner pool(4);
  pool.set_progress(false);
  for (int round = 0; round < 3; ++round) {
    const std::vector<int> out =
        pool.run(10, [round](std::size_t i) { return round * 100 + static_cast<int>(i); });
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], round * 100 + static_cast<int>(i));
    }
  }
}

TEST(Sweep, HandlesMoreJobsThanTrials) {
  SweepRunner pool(8);
  pool.set_progress(false);
  const std::vector<int> out = pool.run(3, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(Sweep, ZeroTrialsIsANoOp) {
  SweepRunner pool(4);
  pool.set_progress(false);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "no trial should run"; });
}

TEST(SweepJobs, EnvOverrideAndClamp) {
  ASSERT_EQ(setenv("DCP_JOBS", "6", 1), 0);
  EXPECT_EQ(sweep_jobs(), 6u);
  ASSERT_EQ(setenv("DCP_JOBS", "1", 1), 0);
  EXPECT_EQ(sweep_jobs(), 1u);
  ASSERT_EQ(setenv("DCP_JOBS", "0", 1), 0);
  EXPECT_EQ(sweep_jobs(), 1u);  // < 1 clamps to serial
  ASSERT_EQ(unsetenv("DCP_JOBS"), 0);
  EXPECT_GE(sweep_jobs(), 1u);  // hardware_concurrency fallback
}

/// Sets (or, for nullptr, unsets) DCP_SHARDS for one scope.
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(const char* value) {
    if (const char* prev = std::getenv("DCP_SHARDS")) prev_ = prev;
    if (value != nullptr) {
      setenv("DCP_SHARDS", value, 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }
  ~ScopedShardsEnv() {
    if (prev_) {
      setenv("DCP_SHARDS", prev_->c_str(), 1);
    } else {
      unsetenv("DCP_SHARDS");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(SweepShards, EnvOverrideClampAndFaultFallback) {
  const struct {
    const char* env;
    bool has_faults;
    int want;
  } cases[] = {
      {nullptr, false, 1},  // unset: serial
      {"abc", false, 1},    // unparsable: serial
      {"0", false, 1},      // < 1 clamps to serial
      {"-2", false, 1},
      {"4", false, 4},      // in range: honoured
      {"16", false, 8},     // above the 8 partition units: capped at them
      {"4", true, 1},       // a fault plan forces serial
  };
  for (const auto& c : cases) {
    ScopedShardsEnv env(c.env);
    EXPECT_EQ(resolve_shards(/*units=*/8, c.has_faults), c.want)
        << "DCP_SHARDS=" << (c.env != nullptr ? c.env : "(unset)") << " faults=" << c.has_faults;
  }
}

TEST(SweepAggregator, ConcurrentAddsSumExactly) {
  CorePerfAggregator agg;
  SweepRunner pool(8);
  pool.set_progress(false);
  pool.run_indexed(200, [&](std::size_t i) {
    CorePerf p;
    p.events_processed = i;
    p.wall_seconds = 0.5;
    p.pool_acquires = 2 * i;
    p.pool_slots = i;  // max-merged
    p.event_slots = 7;
    agg.add(p);
  });
  const CorePerf total = agg.total();
  EXPECT_EQ(agg.trials(), 200u);
  EXPECT_EQ(total.events_processed, 199u * 200u / 2);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 100.0);
  EXPECT_EQ(total.pool_acquires, 199u * 200u);
  EXPECT_EQ(total.pool_slots, 199u);
  EXPECT_EQ(total.event_slots, 7u);
}

// ---------------------------------------------------------------------------
// The determinism regression the evaluation suite rests on: a Fig 17-style
// scheme x loss matrix gives bit-identical measurements whether it runs
// serially or across 8 workers.
// ---------------------------------------------------------------------------

struct TrialDigest {
  double goodput = 0.0;
  Time elapsed = 0;
  bool completed = false;
  std::uint64_t retransmitted = 0;
  std::uint64_t events = 0;

  bool operator==(const TrialDigest&) const = default;
};

std::vector<TrialDigest> fig17_matrix(unsigned jobs) {
  const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kRackTlp, SchemeKind::kIrn,
                              SchemeKind::kTimeout};
  const double rates[] = {0.0, 0.005, 0.02};

  struct Trial {
    SchemeKind k;
    double rate;
  };
  std::vector<Trial> trials;
  for (double rate : rates) {
    for (SchemeKind k : kinds) trials.push_back({k, rate});
  }

  SweepRunner pool(jobs);
  pool.set_progress(false);
  return pool.run(trials.size(), [&](std::size_t i) {
    WorldSpec p = experiment_world(Experiment::kLongFlow);
    p.scheme = trials[i].k;
    p.loss_rate = trials[i].rate;
    p.flows[0].bytes = 2ull * 1000 * 1000;
    p.max_time = milliseconds(20);
    SimWorld w(p);
    const FlowResult r = read_flow(w);
    TrialDigest d;
    d.goodput = r.goodput_gbps;
    d.elapsed = r.elapsed;
    d.completed = r.completed;
    d.retransmitted = r.sender.retransmitted_packets;
    d.events = r.core.events_processed;
    return d;
  });
}

TEST(SweepDeterminism, Fig17MatrixBitIdenticalAcrossJobCounts) {
  const std::vector<TrialDigest> serial = fig17_matrix(1);
  const std::vector<TrialDigest> parallel = fig17_matrix(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
  // The matrix did real work: at least one trial saw loss and recovered.
  bool any_retx = false;
  for (const TrialDigest& d : serial) any_retx = any_retx || d.retransmitted > 0;
  EXPECT_TRUE(any_retx);
}

TEST(SweepDeterminism, FaultDrillMatrixBitIdenticalAcrossJobCounts) {
  // The robustness-bench shape: fault kind x scheme cells, each a fault
  // drill with its own injector + recovery collector.  Fault RNG streams
  // are per-trial state, so DCP_JOBS=8 must reproduce DCP_JOBS=1 exactly.
  auto matrix = [](unsigned jobs) {
    const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kIrn};
    const FaultKind faults[] = {FaultKind::kDrop, FaultKind::kLinkFlap, FaultKind::kHoLoss};
    SweepRunner pool(jobs);
    pool.set_progress(false);
    return pool.run(6, [&](std::size_t i) {
      WorldSpec p = experiment_world(Experiment::kFaultDrill);
      p.scheme = kinds[i % 2];
      p.flows[0].bytes = 2ull * 1000 * 1000;
      p.max_time = milliseconds(50);
      FaultAction a;
      a.kind = faults[i / 2];
      a.at = microseconds(100);
      a.duration = microseconds(200);
      a.rate = 0.02;
      a.sw = 0;
      if (a.kind == FaultKind::kLinkFlap) a.port = 0;
      p.faults.actions.push_back(a);
      SimWorld w(p);
      const FlowResult r = read_flow(w);
      TrialDigest d;
      d.goodput = r.goodput_gbps;
      d.elapsed = r.elapsed;
      d.completed = r.completed;
      d.retransmitted = r.sender.retransmitted_packets;
      d.events = r.core.events_processed;
      return d;
    });
  };
  const std::vector<TrialDigest> serial = matrix(1);
  const std::vector<TrialDigest> parallel = matrix(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

TEST(SweepDeterminism, WebsearchSweepMatchesSerial) {
  auto sweep = [](unsigned jobs) {
    const std::uint64_t seeds[] = {11, 23};
    const SchemeKind kinds[] = {SchemeKind::kDcp, SchemeKind::kIrn};
    SweepRunner pool(jobs);
    pool.set_progress(false);
    return pool.run(4, [&](std::size_t i) {
      WorldSpec p = experiment_world(Experiment::kWebSearch);
      p.scheme = kinds[i % 2];
      p.seed = seeds[i / 2];
      p.clos.spines = 2;
      p.clos.leaves = 2;
      p.clos.hosts_per_leaf = 4;
      p.load = 0.4;
      p.poisson_flows = 100;
      SimWorld w(p);
      const WebSearchResult r = read_websearch(w);
      return std::pair<std::uint64_t, std::size_t>(r.core.events_processed, r.flows_completed);
    });
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

}  // namespace
}  // namespace dcp
