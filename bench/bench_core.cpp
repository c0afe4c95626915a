// Simulator-core throughput benchmark: measures how fast the substrate
// itself processes events, micro (raw EventQueue churn) and macro (a full
// websearch-on-CLOS run), and writes BENCH_core.json next to the binary.
//
// The seed_* constants are the same measurements taken at the pre-rewrite
// seed (std::function events, binary heap + lazy-cancel hash set, by-value
// Packet moves), on the same workloads, so the JSON carries the
// before/after comparison the numbers in docs/architecture.md come from.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/fuzzer.h"
#include "check/invariant_oracle.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "net/channel.h"
#include "sim/event_queue.h"
#include "stats/core_perf.h"
#include "switch/switch.h"
#include "topo/network.h"

namespace {

using namespace dcp;

// Seed (commit d08d0a0) throughput on these exact workloads.
constexpr double kSeedMicroEventsPerSec = 11.2e6;  // 89.0 ns / schedule+fire
constexpr double kSeedMacroEventsPerSec = 3.96e6;  // 3,639,028 events in 0.92 s

/// Steady-state schedule->fire churn at depth 1024: the same loop as
/// BM_EventQueuePushPop, measured as events/sec over `total` events.
CorePerf micro_event_churn(std::uint64_t total) {
  EventQueue q;
  Time now = 0;
  std::int64_t t = 0;
  // Warm up: fill the slab and the heap to working depth.
  for (int i = 0; i < 1024; ++i) q.push(++t, [] {});
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    q.push(++t, [] {});
    q.pop_and_run(now);
  }
  CorePerf p;
  p.events_processed = total;
  p.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return p;
}

/// Counts deliveries and drops them; the lane microbenchmark's far end.
class BenchSink final : public Node {
 public:
  BenchSink(Simulator& sim, Logger& log) : Node(sim, log, 0, "sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t) override { pkt.reset(); }
};

/// Bursty wire delivery: each round hands the channel a back-to-back
/// burst, which parks in the delivery lane with only its head in the heap.
CorePerf micro_lane_burst(int rounds, int burst) {
  Simulator sim;
  Logger log(LogLevel::kOff);
  BenchSink sink(sim, log);
  Channel ch(sim, Bandwidth::gbps(100), microseconds(1));
  ch.connect(&sink, 0);
  const Time ser = ch.serialization(1000);

  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < burst; ++i) {
      Packet p;
      p.type = PktType::kData;
      p.wire_bytes = 1000;
      p.payload_bytes = 1000;
      ch.deliver(p, static_cast<Time>(i + 1) * ser);
    }
    sim.run();
  }
  CorePerf p;
  p.events_processed = sim.events_processed();
  p.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return p;
}

/// One switch hop under a mixed data/ACK/header-only stream — the path the
/// static-dispatch work and the per-hop packet prefix target.  A 4:1-oversubscribed
/// ingress wire feeds one egress port, so the data queue builds past the
/// (shallow) trim threshold and every receive outcome runs: classification,
/// route lookup, data enqueue, trim-to-HO, control-queue enqueue, and
/// over-threshold ACK drop.  The channel static-dispatches every arrival
/// into Switch::receive_fast.
CorePerf micro_switch_receive(int rounds, int burst) {
  Simulator sim;
  Logger log(LogLevel::kOff);
  BenchSink sink(sim, log);

  SwitchConfig cfg;
  cfg.trimming = true;
  cfg.trim_threshold_bytes = 64 * 1024;  // shallow: trims start mid-burst
  Switch sw(sim, log, /*id=*/1, "sw", cfg, /*seed=*/42);
  const std::uint32_t out = sw.add_port(Bandwidth::gbps(100), microseconds(1));
  sw.connect(out, &sink, 0);
  const NodeId kDst = 9;
  sw.routes().add_route(kDst, out);

  Channel in(sim, Bandwidth::gbps(400), microseconds(1));  // 4:1 oversubscription
  in.connect(&sw, 0);
  const Time ser = in.serialization(1000);

  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < burst; ++i) {
      Packet p;
      p.dst = kDst;
      p.flow = static_cast<FlowId>(i % 32);  // a few flows over one single-port route
      if (i % 8 == 7) {  // returning DCP ACK (dropped when over threshold)
        p.type = PktType::kAck;
        p.tag = DcpTag::kAck;
        p.wire_bytes = HeaderSizes::kDcpAck;
      } else if (i % 8 == 3) {  // already-trimmed HO from an upstream hop
        p.type = PktType::kHeaderOnly;
        p.tag = DcpTag::kHeaderOnly;
        p.queue_class = QueueClass::kControl;
        p.wire_bytes = HeaderSizes::kDcpHeaderOnly;
      } else {  // DCP data (trimmed, not dropped, above threshold)
        p.type = PktType::kData;
        p.tag = DcpTag::kData;
        p.wire_bytes = 1000;
        p.payload_bytes = 1000 - HeaderSizes::kDcpHeaderOnly;
      }
      in.deliver(p, static_cast<Time>(i + 1) * ser);
    }
    sim.run();
  }
  CorePerf p;
  p.events_processed = sim.events_processed();
  p.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return p;
}

/// Checkpoint round-trip throughput: a DCP world paused mid-run is saved
/// and restored into a fresh world each round (construction included —
/// the re-arm model makes a rebuild part of every restore).  "Events" are
/// the state-stream bytes moved per round (saved + restored), so
/// events/sec is StateIO overlay bandwidth; a restored-digest mismatch
/// poisons the entry.
CorePerf micro_snapshot_save_restore(int rounds) {
  WorldSpec spec = fuzz_spec(42);
  spec.scheme = SchemeKind::kDcp;
  spec.clos.spines = 2;
  spec.clos.leaves = 4;
  spec.clos.hosts_per_leaf = 2;
  spec.max_time = milliseconds(5);
  spec.flows = {{0, 5, 64 * 1024, 4096, microseconds(5)},
             {2, 7, 24 * 1024, 0, microseconds(20)},
             {6, 1, 96 * 1024, 16384, microseconds(40)},
             {4, 3, 8 * 1024, 4096, microseconds(120)}};
  SimWorld base(spec);
  base.run_to(microseconds(60));

  std::uint64_t bytes = 0;
  bool ok = true;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    SnapshotImage img;
    if (!base.save(img)) {
      ok = false;
      break;
    }
    SimWorld w(spec);
    if (!w.restore(img) || w.digest() != base.digest()) {
      ok = false;
      break;
    }
    bytes += 2 * img.state.size();
  }
  CorePerf p;
  p.events_processed = ok ? bytes : 0;  // poison on failure: loud regression
  p.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return p;
}

/// Full-stack macro run: DCP on a 2x2x4 CLOS with 0.5% injected loss,
/// 400 websearch flows at 40% load (the seed baseline was measured on this
/// exact configuration), on `shards` shards.  One shard is the serial
/// substrate; two put one leaf group on each, bit-identical to serial, so
/// the wall clock is the sharded entry's point (on a single-core runner the
/// window barriers make it *slower*; the perf gate only enforces it on >= 4
/// hardware threads).  With `oracle`, the InvariantOracle rides along —
/// the delta against the unarmed entry is the checking overhead (the armed
/// run must also come back clean).
CorePerf macro_websearch(int shards, bool oracle = false) {
  ShardGroup group(shards);
  Logger log(LogLevel::kOff);
  Network net(group, log);

  SchemeSetup s = make_scheme(SchemeKind::kDcp, SchemeOptions{});
  s.sw.inject_loss_rate = 0.005;
  ClosParams cp;
  cp.spines = 2;
  cp.leaves = 2;
  cp.hosts_per_leaf = 4;
  cp.sw = s.sw;
  ClosTopology topo = build_clos(net, cp);
  apply_scheme(net, s);

  FlowGenParams fg;
  fg.load = 0.4;
  fg.num_flows = 400;
  fg.seed = 7;
  generate_poisson_flows(net, topo.hosts, SizeDist::websearch(), fg);

  std::unique_ptr<InvariantOracle> ora;
  if (oracle) ora = std::make_unique<InvariantOracle>(net);
  CorePerfTimer timer(group);
  net.run_until_done(seconds(10));
  CorePerf perf = timer.finish();
  if (ora) {
    ora->finalize();
    if (!ora->ok()) {
      std::fprintf(stderr, "ORACLE VIOLATION in macro bench: %s\n", ora->summary().c_str());
      perf.events_processed = 0;  // poison the entry so the regression is loud
    }
  }
  return perf;
}

/// Faster (by wall clock) of two macro samples; a poisoned sample (oracle
/// violation zeroed its event count) always wins so the regression stays
/// loud.
CorePerf min_wall(const CorePerf& a, const CorePerf& b) {
  if (a.events_processed == 0) return a;
  if (b.events_processed == 0) return b;
  return b.wall_seconds < a.wall_seconds ? b : a;
}

/// The same metric surfaced through the harness's websearch preset and
/// readout, proving every experiment reports substrate speed for free.
CorePerf harness_websearch() {
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.clos.spines = 2;
  s.clos.leaves = 2;
  s.clos.hosts_per_leaf = 4;
  s.load = 0.4;
  s.poisson_flows = 400;
  s.seed = 7;
  SimWorld w(s);
  return read_websearch(w).core;
}

/// Digest of one trial for the serial-vs-parallel identity check.
struct TrialDigest {
  std::uint64_t events = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::size_t completed = 0;

  bool operator==(const TrialDigest&) const = default;
};

/// An 8-trial seed sweep of the harness websearch run, executed with
/// `jobs` workers.  Returns per-trial digests (trial-indexed, so the
/// serial and parallel vectors compare element-wise).
std::vector<TrialDigest> suite_sweep(unsigned jobs, double* wall_seconds) {
  SweepRunner pool(jobs);
  pool.set_progress(false);
  std::vector<TrialDigest> out = pool.run(8, [](std::size_t i) {
    WorldSpec s = experiment_world(Experiment::kWebSearch);
    s.clos.spines = 2;
    s.clos.leaves = 2;
    s.clos.hosts_per_leaf = 4;
    s.load = 0.4;
    s.poisson_flows = 250;
    s.seed = 100 + i;  // 8 independent replications
    SimWorld w(s);
    WebSearchResult r = read_websearch(w);
    TrialDigest d;
    d.events = r.core.events_processed;
    d.p50 = r.background.overall().percentile(50);
    d.p95 = r.background.overall().percentile(95);
    d.completed = r.flows_completed;
    return d;
  });
  *wall_seconds = pool.last_wall_seconds();
  return out;
}

/// Serial vs parallel wall clock over the same 8 trials — the
/// "suite_parallel" entry in BENCH_core.json.  On a single-core host the
/// speedup sits near 1.0x; it scales with cores because trials share no
/// mutable state.
SuiteParallelEntry suite_parallel() {
  SuiteParallelEntry s;
  s.trials = 8;
  s.jobs = sweep_jobs();
  const std::vector<TrialDigest> serial = suite_sweep(1, &s.serial_wall_seconds);
  const std::vector<TrialDigest> parallel = suite_sweep(s.jobs, &s.parallel_wall_seconds);
  s.bit_identical = serial == parallel;
  return s;
}

/// Pulls `field` out of the named benchmark object in a committed
/// BENCH_core.json.  Narrow by design: the file is produced by
/// export_core_perf_json, so "name" precedes the metrics of its entry.
double json_metric(const std::string& text, const std::string& bench, const std::string& field) {
  const std::size_t at = text.find("\"name\": \"" + bench + "\"");
  if (at == std::string::npos) return -1.0;
  const std::string key = "\"" + field + "\":";
  const std::size_t k = text.find(key, at);
  if (k == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + k + key.size(), nullptr);
}

enum class Bound { kFloor, kCeiling };

/// Prints one --check verdict line and returns whether the gate held:
/// `fresh` must reach `factor` x `base` (a floor) or stay at or below it
/// (a ceiling).  Values print in millions of `unit`.
bool gate(const char* name, double fresh, const char* base_name, double base, double factor,
          Bound bound, const char* unit) {
  const double limit = factor * base;
  const bool ok = bound == Bound::kFloor ? fresh >= limit : fresh <= limit;
  std::printf("perf-check %s: fresh %.3gM%s vs %s %.3gM%s (%s %.2fx = %.3gM%s) -> %s\n", name,
              fresh / 1e6, unit, base_name, base / 1e6, unit,
              bound == Bound::kFloor ? "floor" : "ceiling", factor, limit / 1e6, unit,
              ok ? "OK" : "REGRESSION");
  return ok;
}

/// `bench_core --check <committed BENCH_core.json>`: the CI perf-smoke
/// gate.  Re-measures the macro workload (best of 3) and fails when it
/// runs below 0.75x the committed events/sec — wide enough for shared-
/// runner noise, tight enough that losing the two-level scheduler's win
/// (~1.5x) trips it.  Every gate runs and prints its verdict, so one slow
/// spell cannot hide the others; the exit code is 1 if any failed.
int run_check(const char* json_path) {
  std::ifstream in(json_path);
  if (!in) {
    std::fprintf(stderr, "--check: cannot open %s\n", json_path);
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const double committed = json_metric(ss.str(), "macro_websearch_clos_loss", "events_per_sec");
  if (committed <= 0.0) {
    std::fprintf(stderr, "--check: no macro_websearch_clos_loss entry in %s\n", json_path);
    return 2;
  }

  CorePerf fresh = macro_websearch(1);
  for (int i = 1; i < 3; ++i) fresh = min_wall(fresh, macro_websearch(1));

  const double got = fresh.events_per_sec();
  bool ok = gate("macro_websearch_clos_loss", got, "committed", committed, 0.75, Bound::kFloor,
                 " ev/s");

  // Memory gate: the same macro workload must not blow past 2.5x the
  // committed slab-arena footprint or peak RSS — wide enough for allocator
  // and runner variance, tight enough that a leaked slab chunk per window
  // or an O(hosts^2) route-table regression trips it.  Skipped against
  // committed files that predate the fields.
  const double arena_committed = json_metric(ss.str(), "macro_websearch_clos_loss", "arena_bytes");
  const double rss_committed =
      json_metric(ss.str(), "macro_websearch_clos_loss", "peak_rss_bytes");
  if (arena_committed > 0.0 && fresh.arena_bytes > 0) {
    ok &= gate("arena_bytes", static_cast<double>(fresh.arena_bytes), "committed",
               arena_committed, 2.5, Bound::kCeiling, "B");
  } else {
    std::printf("perf-check arena_bytes: skipped (no committed entry)\n");
  }
  if (rss_committed > 0.0 && fresh.peak_rss_bytes > 0) {
    ok &= gate("peak_rss_bytes", static_cast<double>(fresh.peak_rss_bytes), "committed",
               rss_committed, 2.5, Bound::kCeiling, "B");
  } else {
    std::printf("perf-check peak_rss_bytes: skipped (no committed entry)\n");
  }

  // Switch-datapath micro: short (so noisier than the macro), hence the
  // wider 0.70x floor — still tight enough that losing the static dispatch
  // or pushing per-hop packet fields past a cache line shows up.  Skipped (with a
  // note) against committed files that predate the entry.
  const double sw_committed = json_metric(ss.str(), "micro_switch_receive", "events_per_sec");
  if (sw_committed > 0.0) {
    CorePerf sw = micro_switch_receive(/*rounds=*/1500, /*burst=*/512);
    for (int i = 1; i < 3; ++i) {
      sw = min_wall(sw, micro_switch_receive(1500, 512));
    }
    ok &= gate("micro_switch_receive", sw.events_per_sec(), "committed", sw_committed, 0.70,
               Bound::kFloor, " ev/s");
  } else {
    std::printf("perf-check micro_switch_receive: skipped (no committed entry)\n");
  }

  // Snapshot round-trip micro: dominated by world rebuild + StateIO
  // memcpy, so it is steadier than the event-path micros; 0.60x still
  // allows shared-runner noise while catching an accidental O(n^2) in the
  // overlay or a state-stream blow-up.  Skipped (with a note) against
  // committed files that predate the entry.
  const double snap_committed = json_metric(ss.str(), "micro_snapshot_save_restore", "events_per_sec");
  if (snap_committed > 0.0) {
    CorePerf snap = micro_snapshot_save_restore(200);
    for (int i = 1; i < 3; ++i) snap = min_wall(snap, micro_snapshot_save_restore(200));
    ok &= gate("micro_snapshot_save_restore", snap.events_per_sec(), "committed", snap_committed,
               0.60, Bound::kFloor, " bytes/s");
  } else {
    std::printf("perf-check micro_snapshot_save_restore: skipped (no committed entry)\n");
  }

  // Sharded gate: only meaningful where the two shard workers get real
  // cores.  On >= 4 hardware threads the sharded macro must beat serial
  // by 1.5x (single trial); below that the windows time-slice one core
  // and the number says nothing, so the gate is skipped.
  if (std::thread::hardware_concurrency() >= 4) {
    ok &= gate("macro_websearch_sharded", macro_websearch(2).events_per_sec(), "serial",
               got, 1.5, Bound::kFloor, " ev/s");
  } else {
    std::printf("perf-check macro_websearch_sharded: skipped (%u hardware threads < 4)\n",
                std::thread::hardware_concurrency());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--check") == 0) return run_check(argv[2]);

  std::vector<CorePerfEntry> entries;
  entries.push_back({"micro_event_queue_push_pop_1M", micro_event_churn(1'000'000),
                     kSeedMicroEventsPerSec});
  entries.push_back(
      {"micro_lane_burst", micro_lane_burst(/*rounds=*/2000, /*burst=*/512), 0.0});
  entries.push_back(
      {"micro_switch_receive", micro_switch_receive(/*rounds=*/1500, /*burst=*/512), 0.0});
  // Checkpoint round-trip bandwidth (state bytes through StateIO per
  // second); no seed column (the subsystem is new).
  entries.push_back({"micro_snapshot_save_restore", micro_snapshot_save_restore(400), 0.0});
  // The armed-vs-unarmed delta is a few percent — smaller than scheduler
  // noise on a loaded host — so the pair is sampled interleaved (drift hits
  // both sides alike) and each entry keeps its best-of-3 wall clock.
  CorePerf macro_unarmed = macro_websearch(1);
  CorePerf macro_armed = macro_websearch(1, /*oracle=*/true);
  for (int i = 1; i < 3; ++i) {
    macro_unarmed = min_wall(macro_unarmed, macro_websearch(1));
    macro_armed = min_wall(macro_armed, macro_websearch(1, /*oracle=*/true));
  }
  entries.push_back({"macro_websearch_clos_loss", macro_unarmed, kSeedMacroEventsPerSec});
  entries.push_back({"macro_websearch_oracle_armed", macro_armed, 0.0});
  // Sharded macro: the baseline column carries the serial macro from this
  // same process, so speedup_vs_seed is this machine's sharding win (the
  // acceptance target is > 1.5x on a >= 4-core runner; expect < 1x on one
  // core, where the windows serialize onto a single thread).
  CorePerf macro_sharded = macro_websearch(2);
  for (int i = 1; i < 3; ++i) macro_sharded = min_wall(macro_sharded, macro_websearch(2));
  CorePerfEntry sharded_entry{"macro_websearch_sharded", macro_sharded,
                              macro_unarmed.events_per_sec()};
  sharded_entry.shards = 2;
  sharded_entry.hardware_threads = std::thread::hardware_concurrency();
  entries.push_back(sharded_entry);
  entries.push_back({"harness_run_websearch", harness_websearch(), 0.0});

  for (const CorePerfEntry& e : entries) {
    std::printf("%-32s events=%llu wall=%.3fs events/sec=%.3gM", e.name.c_str(),
                static_cast<unsigned long long>(e.perf.events_processed), e.perf.wall_seconds,
                e.perf.events_per_sec() / 1e6);
    if (e.baseline_events_per_sec > 0.0) {
      std::printf("  (seed %.3gM, %.2fx)", e.baseline_events_per_sec / 1e6,
                  e.perf.events_per_sec() / e.baseline_events_per_sec);
    }
    std::printf("\n");
  }

  // Oracle overhead on the macro run (acceptance: <= 5% when armed, zero
  // when off — the unarmed run compiles to null-checked hook sites only).
  const double unarmed = macro_unarmed.events_per_sec();
  const double armed = macro_armed.events_per_sec();
  if (unarmed > 0.0 && armed > 0.0) {
    std::printf("%-32s %.2f%% (armed %.3gM vs unarmed %.3gM events/sec)\n", "oracle_overhead",
                (unarmed / armed - 1.0) * 100.0, armed / 1e6, unarmed / 1e6);
  }

  const SuiteParallelEntry suite = suite_parallel();
  std::printf("%-32s trials=%zu jobs=%u serial=%.3fs parallel=%.3fs speedup=%.2fx%s\n",
              "suite_parallel", suite.trials, suite.jobs, suite.serial_wall_seconds,
              suite.parallel_wall_seconds, suite.speedup(),
              suite.bit_identical ? "" : "  RESULTS DIVERGED");

  const bool ok = export_core_perf_json("BENCH_core.json", entries, &suite);
  std::printf("BENCH_core.json %s\n", ok ? "written" : "FAILED");
  return (ok && suite.bit_identical) ? 0 : 1;
}
