// Oracle + fuzzer self-tests.
//
// The InvariantOracle is itself load-bearing test infrastructure, so this
// suite checks the checker: deliberately broken transports (check/broken.h)
// must each trip *exactly* the invariant their bug violates, clean runs must
// stay clean, arming the oracle must leave every run bit-identical, and the
// scenario fuzzer must be a pure function of its seed —
// generation, verdict and repro file alike — with a shrinker that reduces a
// padded 50-action plan to the handful of actions that matter.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/broken.h"
#include "check/fuzzer.h"
#include "check/invariant_oracle.h"
#include "harness/config.h"
#include "harness/scheme.h"
#include "harness/sweep.h"
#include "sim/logger.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "switch/buffer.h"
#include "topo/dumbbell.h"
#include "topo/network.h"

namespace dcp {
namespace {

// ---------------------------------------------------------------------------
// Broken toys: each must trip exactly its intended invariant
// ---------------------------------------------------------------------------

// Minimal fabric for the toy protocol: two hosts under one spine, one flow,
// loss-free (CX5 switch config: no trimming, no injected loss).
WorldSpec toy_scenario() {
  WorldSpec s = fuzz_spec(0);
  s.scheme = SchemeKind::kCx5;
  s.clos.spines = 1;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 1;
  WorldFlow f;
  f.src = 0;
  f.dst = 1;
  f.bytes = 8000;
  f.msg_bytes = 0;
  s.flows.push_back(f);
  return s;
}

FuzzVerdict run_toy(ToyBug bug) {
  WorldSpec s = toy_scenario();
  s.factory_override = std::make_shared<ToyFactory>(bug);
  return run_fuzz_scenario(s);
}

TEST(BrokenToys, CleanToyPassesTheOracle) {
  const FuzzVerdict v = run_toy(ToyBug::kNone);
  EXPECT_FALSE(v.violated) << v.message << "\n" << v.trace;
  EXPECT_TRUE(v.all_complete);
}

TEST(BrokenToys, DuplicateCompletionTripsExactlyOnceCompletion) {
  const FuzzVerdict v = run_toy(ToyBug::kDupComplete);
  ASSERT_TRUE(v.violated);
  EXPECT_EQ(v.invariant, "exactly-once-completion") << v.message;
  EXPECT_EQ(v.num_violations, 1u) << v.message;
}

TEST(BrokenToys, PsnRegressionTripsPsnMonotonic) {
  const FuzzVerdict v = run_toy(ToyBug::kPsnRegress);
  ASSERT_TRUE(v.violated);
  EXPECT_EQ(v.invariant, "psn-monotonic") << v.message;
  EXPECT_EQ(v.num_violations, 1u) << v.message;
}

TEST(BrokenToys, ForgedHoTripsHoConservation) {
  const FuzzVerdict v = run_toy(ToyBug::kForgedHo);
  ASSERT_TRUE(v.violated);
  EXPECT_EQ(v.invariant, "ho-conservation") << v.message;
  EXPECT_EQ(v.num_violations, 1u) << v.message;
}

TEST(BrokenToys, SilentDeadlockReportsWhatArrived) {
  // The clean toy never retransmits, so a total drop window strands its
  // flow and the run quiesces.  The verdict and the flow record must both
  // carry what the sink holds, not zero.
  WorldSpec s = toy_scenario();
  s.flows[0].bytes = 200'000;
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.at = microseconds(5);
  drop.duration = microseconds(1);
  drop.rate = 1.0;
  s.faults.actions.push_back(drop);
  s.factory_override = std::make_shared<ToyFactory>(ToyBug::kNone);
  SimWorld w(s);
  w.run_until_done();
  const FuzzVerdict v = w.finalize_verdict();
  ASSERT_TRUE(v.violated);
  EXPECT_EQ(v.invariant, "no-silent-deadlock") << v.message;

  const FlowRecord& rec = w.net().records().at(0);
  const std::uint64_t held =
      w.net().host(rec.spec.dst)->receiver(rec.spec.id)->stats().bytes_received;
  EXPECT_GT(held, 0u);
  EXPECT_LT(held, 200'000u);
  EXPECT_EQ(rec.receiver.bytes_received, held);
  EXPECT_NE(v.message.find(std::to_string(held) + " of 200000 B delivered"), std::string::npos)
      << v.message;
}

TEST(BrokenToys, VerdictCarriesTraceAndTimestamp) {
  const FuzzVerdict v = run_toy(ToyBug::kDupComplete);
  ASSERT_TRUE(v.violated);
  EXPECT_FALSE(v.trace.empty());
  EXPECT_GT(v.at, 0);
}

// ---------------------------------------------------------------------------
// Buffer-conservation: direct SharedBuffer drives
// ---------------------------------------------------------------------------

TEST(BufferConservation, LeakedCellIsFlaggedAtQuiesce) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  InvariantOracle oracle(net);
  SharedBuffer buf(64 * 1024, 4);
  oracle.watch_buffer(buf);
  ASSERT_TRUE(buf.alloc(0, 0, 1000));  // never released
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.first()->invariant, "buffer-conservation") << oracle.summary();
}

TEST(BufferConservation, ReleaseWithoutAllocIsImmediate) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  InvariantOracle oracle(net);
  SharedBuffer buf(64 * 1024, 4);
  oracle.watch_buffer(buf);
  ASSERT_TRUE(buf.alloc(1, 0, 500));
  buf.release(2, 0, 500);  // wrong ingress key: nothing was charged there
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.first()->invariant, "buffer-conservation") << oracle.summary();
}

TEST(InvariantOracle, RestoreRejectsATraceCursorOutsideTheRing) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  InvariantOracle oracle(net);
  std::vector<std::uint8_t> image;
  StateIO save = StateIO::saver(image);
  oracle.checkpoint(save);
  ASSERT_TRUE(save.ok());

  Simulator sim2;
  Network net2{sim2, log};
  InvariantOracle back(net2);
  StateIO clean = StateIO::loader(image);
  back.checkpoint(clean);
  ASSERT_TRUE(clean.ok()) << clean.error();
  // The ring cursor is followed by ring_wrapped_, frozen_, the empty
  // violation list, suppressed_ and finalized_.
  const std::size_t cursor_at = image.size() - (1 + 1 + 8 + 8 + 1) - 8;
  const std::uint64_t past_ring = 256;  // the ring holds 256 events
  std::memcpy(image.data() + cursor_at, &past_ring, sizeof past_ring);
  StateIO load = StateIO::loader(image);
  back.checkpoint(load);
  EXPECT_FALSE(load.ok());
}

TEST(BufferConservation, BalancedTrafficStaysClean) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  InvariantOracle oracle(net);
  SharedBuffer buf(64 * 1024, 4);
  oracle.watch_buffer(buf);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(buf.alloc(static_cast<std::uint32_t>(i % 4), 1, 1500));
  }
  for (int i = 0; i < 8; ++i) {
    buf.release(static_cast<std::uint32_t>(i % 4), 1, 1500);
  }
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.summary();
}

// The seam's contract (check/observer.h): an armed observer only reads.
// Every fuzz seed must end with the same digest and the same event count
// whether the oracle is armed or not.
TEST(InvariantOracle, ArmingNeverPerturbsTheRun) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    WorldSpec spec = generate_fuzz_scenario(seed);
    spec.shards = 1;
    auto run = [&spec](bool oracle) {
      spec.oracle = oracle;
      SimWorld w(spec);
      w.run_until_done();
      return w.digest();
    };
    const WorldDigest armed = run(true);
    const WorldDigest unarmed = run(false);
    EXPECT_EQ(armed.value, unarmed.value) << "seed " << seed;
    EXPECT_EQ(armed.events, unarmed.events) << "seed " << seed;
  }
}

// The same contract on a two-shard event core, where the armed oracle
// serializes hooks from both workers.  Fault plans are cleared: a faulted
// scenario runs serially under the default shard choice (see SimWorld).
TEST(InvariantOracle, ArmingNeverPerturbsAShardedRun) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    WorldSpec spec = generate_fuzz_scenario(seed);
    spec.faults = FaultPlan{};
    spec.shards = 2;
    auto run = [&spec](bool oracle) {
      spec.oracle = oracle;
      SimWorld w(spec);
      EXPECT_EQ(w.shard_count(), 2);
      w.run_until_done();
      return w.digest();
    };
    const WorldDigest armed = run(true);
    const WorldDigest unarmed = run(false);
    EXPECT_EQ(armed.value, unarmed.value) << "seed " << seed;
    EXPECT_EQ(armed.events, unarmed.events) << "seed " << seed;
  }
}

// Observers stack on the one seam: an oracle armed over another observer
// hands the seam back to it when destroyed.
TEST(InvariantOracle, DestructionHandsTheSeamBack) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  CheckObserver tap;
  sim.set_check_observer(&tap);
  {
    InvariantOracle oracle(net);
    EXPECT_EQ(sim.check_observer(), &oracle);
  }
  EXPECT_EQ(sim.check_observer(), &tap);
}

/// A clean DCP star of three hosts with the oracle armed; run() moves one
/// flow from host 0 to host 2.
struct OracleStar {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;
  SharedBuffer stray{64 * 1024, 4};  // outlives the oracle that watches it
  std::unique_ptr<InvariantOracle> oracle;

  OracleStar() {
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    star = build_star(net, 3, s.sw);
    apply_scheme(net, s);
    oracle = std::make_unique<InvariantOracle>(net);
  }

  void run(std::uint64_t bytes) {
    FlowSpec spec;
    spec.src = star.hosts[0]->id();
    spec.dst = star.hosts[2]->id();
    spec.bytes = bytes;
    const FlowId id = net.start_flow(spec);
    net.run_until_done(seconds(1));
    ASSERT_TRUE(net.record(id).complete());
  }
};

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::size_t at = 0;
  for (std::size_t nl; (nl = s.find('\n', at)) != std::string::npos; at = nl + 1) {
    out.push_back(s.substr(at, nl - at));
  }
  EXPECT_EQ(at, s.size()) << "trace_slice ends without a newline";
  return out;
}

// trace_slice() prints one readable line per event: time, what happened,
// flow, packet type and sequence numbers, and the node.
TEST(InvariantOracle, TraceSliceRendersReadableLines) {
  OracleStar f;
  f.run(2 * kMtuPayload);
  f.oracle->finalize();
  ASSERT_TRUE(f.oracle->ok()) << f.oracle->summary();

  const std::vector<std::string> five = lines_of(f.oracle->trace_slice(5));
  ASSERT_EQ(five.size(), 5u);
  for (const std::string& line : five) {
    EXPECT_NE(line.find("us  "), std::string::npos) << line;
    EXPECT_NE(line.find(" flow=1 "), std::string::npos) << line;
    EXPECT_NE(line.find(" psn="), std::string::npos) << line;
  }
  const std::string all = f.oracle->trace_slice(256);
  for (const char* word : {"send", "deliver", " data ", " ack ", "node="}) {
    EXPECT_NE(all.find(word), std::string::npos) << word << "\n" << all;
  }
}

// The ring behind trace_slice() holds the newest 256 events, and a shorter
// slice is the tail of a longer one.
TEST(InvariantOracle, TraceRingHoldsTheNewestEvents) {
  OracleStar f;
  f.run(300'000);  // 300 data packets: well over 256 events
  const std::vector<std::string> all = lines_of(f.oracle->trace_slice(1000));
  ASSERT_EQ(all.size(), 256u);
  const std::vector<std::string> tail = lines_of(f.oracle->trace_slice(10));
  EXPECT_EQ(tail, std::vector<std::string>(all.end() - 10, all.end()));
}

// Recording freezes at the first violation, so the slice shows the events
// that led up to it and nothing after.
TEST(InvariantOracle, TraceFreezesAtTheFirstViolation) {
  OracleStar f;
  f.oracle->watch_buffer(f.stray);
  std::string at_violation;
  f.sim.schedule(microseconds(3), [&] {
    f.stray.release(0, 0, 500);  // nothing was charged: a violation now
    at_violation = f.oracle->trace_slice(256);
  });
  f.run(100'000);
  ASSERT_FALSE(f.oracle->ok());
  EXPECT_EQ(f.oracle->first()->invariant, "buffer-conservation");
  EXPECT_FALSE(at_violation.empty());
  EXPECT_EQ(f.oracle->trace_slice(256), at_violation);
}

// ---------------------------------------------------------------------------
// Fuzzer determinism
// ---------------------------------------------------------------------------

TEST(Fuzzer, GenerationIsAPureFunctionOfTheSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    EXPECT_TRUE(generate_fuzz_scenario(seed) == generate_fuzz_scenario(seed)) << "seed " << seed;
  }
}

TEST(Fuzzer, GeneratedScenariosAreValid) {
  bool saw_faults = false;
  bool saw_multi_flow = false;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const WorldSpec s = generate_fuzz_scenario(seed);
    ASSERT_GE(s.flows.size(), 1u) << "seed " << seed;
    for (const WorldFlow& f : s.flows) {
      ASSERT_GE(f.src, 0);
      ASSERT_LT(f.src, s.num_hosts());
      ASSERT_GE(f.dst, 0);
      ASSERT_LT(f.dst, s.num_hosts());
      ASSERT_NE(f.src, f.dst) << "seed " << seed;
      ASSERT_GE(f.bytes, 1u);
    }
    saw_faults |= !s.faults.empty();
    saw_multi_flow |= s.flows.size() > 1;
  }
  EXPECT_TRUE(saw_faults);      // the fault substream actually produces plans
  EXPECT_TRUE(saw_multi_flow);  // and the workload substream varies
}

TEST(Fuzzer, VerdictAndReproAreDeterministic) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    const WorldSpec s = generate_fuzz_scenario(seed);
    const FuzzVerdict a = run_fuzz_scenario(s);
    const FuzzVerdict b = run_fuzz_scenario(s);
    EXPECT_EQ(a.violated, b.violated);
    EXPECT_EQ(a.invariant, b.invariant);
    EXPECT_EQ(a.all_complete, b.all_complete);
    EXPECT_EQ(write_fuzz_repro(s, a), write_fuzz_repro(s, b));
  }
}

TEST(Fuzzer, ReproFileRoundTrips) {
  for (std::uint64_t seed : {2ull, 9ull, 58ull}) {
    const WorldSpec s = generate_fuzz_scenario(seed);
    FuzzVerdict v;  // round-trip must not depend on the verdict comments
    v.violated = true;
    v.invariant = "exactly-once-completion";
    v.trace = "  1.000us send psn=0\n";
    const std::string text = write_fuzz_repro(s, v);
    std::string err;
    const auto parsed = parse_experiment_config(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    WorldSpec back = parsed->spec;
    back.oracle = true;  // run_fuzz --replay arms it; it has no text form
    EXPECT_TRUE(back == s) << "seed " << seed << "\n" << text;
    // Field by field too: identities written by a lossy writer would agree.
    EXPECT_TRUE(back.flows == s.flows && back.faults == s.faults) << "seed " << seed;
    EXPECT_EQ(back.max_time, s.max_time) << "seed " << seed;
  }
}

TEST(Fuzzer, SchemeNamesRoundTrip) {
  for (SchemeKind k : {SchemeKind::kPfc, SchemeKind::kIrn, SchemeKind::kIrnEcmp,
                       SchemeKind::kMpRdma, SchemeKind::kDcp, SchemeKind::kCx5,
                       SchemeKind::kTimeout, SchemeKind::kRackTlp, SchemeKind::kTcp,
                       SchemeKind::kFec}) {
    const auto back = scheme_from_name(scheme_name(k));
    ASSERT_TRUE(back.has_value()) << scheme_name(k);
    EXPECT_EQ(*back, k);
  }
  // Config-file aliases, any case.
  EXPECT_EQ(scheme_from_name("mprdma"), SchemeKind::kMpRdma);
  EXPECT_EQ(scheme_from_name("GBN"), SchemeKind::kCx5);
  EXPECT_EQ(scheme_from_name("racktlp"), SchemeKind::kRackTlp);
  EXPECT_EQ(scheme_from_name("irn-ecmp"), SchemeKind::kIrnEcmp);
  EXPECT_FALSE(scheme_from_name("no-such-scheme").has_value());
}

TEST(Fuzzer, ReproParseRejectsMalformedNumbers) {
  const std::string head =
      "# repro\nseed = 1\nscheme = DCP\nspines = 1\nleaves = 2\nhosts_per_leaf = 1\n"
      "max_time_ms = 50000us\n";
  std::string err;
  ASSERT_TRUE(
      parse_experiment_config(head + "flow src=0 dst=1 bytes=4096 msg=0 start=1us\n", &err)
          .has_value())
      << err;
  // Malformed numbers must fail closed: read as a numeric prefix, or
  // wrapped from a negative, they would make --replay run another scenario.
  const std::pair<std::string, const char*> bad[] = {
      {head + "flow src=0 dst=1 bytes=abc msg=0 start=1us\n", "line 8"},
      {head + "flow src=1x dst=0 bytes=4096 msg=0 start=1us\n", "line 8"},
      {head + "flow src=0 dst=1 bytes=-1000 msg=0 start=1us\n", "line 8"},
      {"# repro\nseed = 1\nspines = 2x\nflow src=0 dst=1 bytes=4096\n", "line 3"},
      {head + "flow src=0 dst=1 bytes=4096 msg=0 start=1usx\n", "line 8"},
      {"# repro\nseed = 1e3\nflow src=0 dst=1 bytes=4096\n", "line 2"},
  };
  for (const auto& [text, line] : bad) {
    err.clear();
    EXPECT_FALSE(parse_experiment_config(text, &err).has_value()) << text;
    EXPECT_NE(err.find(line), std::string::npos) << err;
  }
}

// Parallel fuzz batches must report exactly what the serial loop reports:
// per-seed repro text is compared byte for byte between a 1-worker and a
// 4-worker pool.
TEST(Fuzzer, PoolSizeDoesNotChangeVerdicts) {
  constexpr std::size_t kCount = 6;
  constexpr std::uint64_t kBase = 21;
  auto trial = [](std::size_t i) {
    const WorldSpec s = generate_fuzz_scenario(kBase + i);
    return write_fuzz_repro(s, run_fuzz_scenario(s));
  };
  SweepRunner serial(1);
  serial.set_progress(false);
  SweepRunner pool(4);
  pool.set_progress(false);
  const std::vector<std::string> a = serial.run(kCount, trial);
  const std::vector<std::string> b = pool.run(kCount, trial);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Injected bug: the fuzzer finds it, the shrinker minimizes it
// ---------------------------------------------------------------------------

TEST(InjectedBug, FuzzerFindsDuplicateCompletion) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    WorldSpec s = generate_fuzz_scenario(seed);
    s.scheme = SchemeKind::kDcp;  // what run_fuzz --inject-bug does
    s.factory_override = std::make_shared<BrokenDcpFactory>();
    const FuzzVerdict v = run_fuzz_scenario(s);
    if (v.violated) {
      EXPECT_EQ(v.invariant, "exactly-once-completion") << v.message;
      SUCCEED() << "found at seed " << seed;
      return;
    }
  }
  FAIL() << "no scenario in 200 seeds provoked a retransmission";
}

// A handcrafted haystack: one blackhole that provokes retransmissions (and
// with the broken receiver, the duplicate completion) buried under 49 filler
// actions that barely perturb the run.  ddmin must strip the padding.
WorldSpec haystack_scenario() {
  WorldSpec s = fuzz_spec(0);
  s.scheme = SchemeKind::kDcp;
  s.clos.spines = 1;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 1;
  WorldFlow f;
  f.src = 0;
  f.dst = 1;
  f.bytes = 32 * 1024;
  f.msg_bytes = 4096;
  s.flows.push_back(f);

  FaultAction needle;
  needle.kind = FaultKind::kBlackhole;
  needle.at = microseconds(3);
  needle.duration = microseconds(200);
  needle.sw = 0;  // the lone spine: every path crosses it
  needle.port = FaultAction::kAll;
  for (int i = 0; i < 49; ++i) {
    FaultAction filler;
    filler.kind = FaultKind::kCorrupt;
    filler.at = microseconds(500 + 10 * i);
    filler.duration = microseconds(1);
    filler.rate = 0.0001;
    filler.sw = 0;
    filler.port = FaultAction::kAll;
    s.faults.actions.push_back(filler);
    if (i == 24) s.faults.actions.push_back(needle);  // bury it mid-plan
  }
  return s;
}

// A late needle behind a long clean prefix: one wire-drop burst guts a
// small late flow's initial transmission, and the sender's coarse fallback
// timer eventually retransmits, landing the violation at ~4.4 ms.  A large
// bulk flow packs ~19k events into the first ~320 us, before every fault
// action, and 49 late low-rate chaff drops pad the plan to 50 entries.
WorldSpec late_needle_scenario() {
  WorldSpec s = fuzz_spec(7);
  s.scheme = SchemeKind::kDcp;
  s.clos.spines = 1;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 2;
  s.max_time = milliseconds(8);
  s.flows = {{0, 2, 2 * 1024 * 1024, 0, microseconds(5)},  // bulk prefix
             {1, 3, 8192, 4096, microseconds(400)}};       // needle
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.at = microseconds(398);
  drop.duration = microseconds(45);
  drop.rate = 0.95;
  s.faults.actions.push_back(drop);
  for (int i = 0; i < 49; ++i) {
    FaultAction chaff;
    chaff.kind = FaultKind::kDrop;
    chaff.at = microseconds(500.0 + 10.0 * (i % 7));
    chaff.duration = microseconds(5);
    chaff.rate = 0.001;
    s.faults.actions.push_back(chaff);
  }
  return s;
}

TEST(InjectedBug, ShrinkerReducesFiftyActionsToAtMostThree) {
  const struct {
    const char* name;
    WorldSpec s;
  } cases[] = {{"haystack", haystack_scenario()}, {"late needle", late_needle_scenario()}};
  for (const auto& c : cases) {
    WorldSpec s = c.s;
    s.factory_override = std::make_shared<BrokenDcpFactory>();
    ASSERT_EQ(s.faults.actions.size(), 50u) << c.name;
    const FuzzVerdict before = run_fuzz_scenario(s);
    ASSERT_TRUE(before.violated) << c.name << ": the needle did not provoke a retransmission";
    ASSERT_EQ(before.invariant, "exactly-once-completion") << c.name << ": " << before.message;

    ShrinkStats stats;
    const WorldSpec min = shrink_fuzz_scenario(s, &stats);
    EXPECT_EQ(stats.actions_before, 50u) << c.name;
    EXPECT_LE(stats.actions_after, 3u) << c.name;
    EXPECT_LE(min.faults.actions.size(), 3u) << c.name;
    EXPECT_GT(stats.runs, 0u) << c.name;

    // The minimized scenario still reproduces the same violation…
    const FuzzVerdict after = run_fuzz_scenario(min);
    ASSERT_TRUE(after.violated) << c.name;
    EXPECT_EQ(after.invariant, "exactly-once-completion") << c.name;
    // …and shrinking is itself deterministic.
    EXPECT_TRUE(shrink_fuzz_scenario(s) == min) << c.name;
  }
}

TEST(InjectedBug, ShrinkReturnsCleanScenariosUnchanged) {
  const WorldSpec s = toy_scenario();  // stock transports, loss-free
  ShrinkStats stats;
  const WorldSpec out = shrink_fuzz_scenario(s, &stats);
  EXPECT_TRUE(out == s);
  EXPECT_EQ(stats.runs, 1u);  // one probe run, no shrink attempts
}

}  // namespace
}  // namespace dcp
