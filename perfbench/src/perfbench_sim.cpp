// perfbench_sim: one workload of the simulator benchmark, in its own process.
//
//   perfbench_sim --workload NAME --seed N --count-flows
//   perfbench_sim --workload NAME --seed N --flows F --seconds S --trace 0|1 [--spans FILE]
//
// --count-flows prints F, the number of the seed's websearch arrivals that
// offers the workload's bytes; it runs in a process of its own so its
// scratch world never counts toward the measured process's peak RSS.
//
// Untraced (--trace 0): repeats the workload — setup, run, finalize,
// teardown — until S seconds have passed (at least kMinReps times), timing
// every phase from outside by wrapping the calls into each module's public
// functions, and reports the median of each phase.  A calibration kernel
// runs in a child process between repetitions; the end-to-end times are
// scaled by the host speed it measures around each repetition (see
// calibrate()).  Every
// repetition must reproduce the same digest and event count.
//
// Traced (--trace 1): a warm-up repetition, then kTracePairs pairs of an
// untraced and a traced repetition.  A traced one records spans around the
// same phase calls and drives the run through Network::run_to_paused on a
// fixed simulated-time grid, so each slice span carries the deltas of the
// layer counters; the first keeps its spans (written to --spans at exit)
// and runs the per-call layer probes.  trace.overhead_s is the median
// traced-minus-untraced run time over the pairs.
//
// Either way the last line of stdout is one JSON object: the digest, the
// output checks, the phase times, the layer counts and the environment.
// perfbench/run.py builds this program, runs it and reduces that object to
// the benchmark's metrics.

#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/invariant_oracle.h"
#include "fault/fault_injector.h"
#include "harness/scheme.h"
#include "net/channel.h"
#include "sim/event_queue.h"
#include "sim/shard.h"
#include "stats/core_perf.h"
#include "topo/clos.h"
#include "topo/fattree.h"
#include "topo/network.h"
#include "workload/flowgen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dcp;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;     // untraced repetitions, at least
constexpr int kTracePairs = 3;  // untraced + traced repetition pairs of a traced run
constexpr Time kMaxSimTime = 10 * kSecond;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-wide steal time from /proc/stat, in seconds (0 where unavailable).
double steal_now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (auto& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  bool fattree;       // k=16 fat-tree, else the 2x2x4 Clos
  int shards;         // ShardGroup size
  bool faults;        // fixed FaultPlan + armed InvariantOracle
  double offered_gb;  // websearch bytes offered per repetition
  int setup_samples;  // extra set-up-only builds per repetition
};

constexpr Workload kWorkloads[] = {
    {"clos_websearch", false, 1, false, 2.1, 16},
    {"clos_faults_oracle", false, 1, true, 2.1, 16},
    {"fattree_k16_websearch", true, 1, false, 0.42, 4},
    {"fattree_k16_shards2", true, 2, false, 0.42, 4},
};

/// The clos_faults_oracle plan.  Switch indices follow build_clos: spines
/// 0-1, then leaves 2-3; spine port l faces leaf l, leaf ports 0-3 face
/// hosts and 4-5 face the spines.  Combined silent losses strand a DCP flow
/// now and then, with a clean oracle: the flow never completes and its
/// receiver keeps the run alive to the 10 s limit.  Under this plan one
/// flow strands on 5 of seeds 1-120 (17, 82, 104, 107, 112); every
/// component alone was clean on seeds 1-40, while 20 flaps every 3 ms with
/// the rest of the plan stranded a flow on 5 of those 40.
FaultPlan fault_plan() {
  FaultPlan p;
  for (int i = 0; i < 4; ++i) {  // spine 0 flaps its leaf links in turn
    FaultAction a;
    a.kind = FaultKind::kLinkFlap;
    a.at = milliseconds(2) + i * milliseconds(10);
    a.duration = microseconds(50);
    a.sw = 0;
    a.port = static_cast<std::uint32_t>(i % 2);
    a.drop_in_flight = true;
    p.actions.push_back(a);
  }
  FaultAction burst;  // drop burst on leaf 0's uplink to spine 1
  burst.kind = FaultKind::kDrop;
  burst.at = milliseconds(10);
  burst.duration = milliseconds(5);
  burst.sw = 2;
  burst.port = 5;
  burst.rate = 0.05;
  p.actions.push_back(burst);
  FaultAction ho;  // control-queue (header-only) loss on every switch
  ho.kind = FaultKind::kHoLoss;
  ho.at = milliseconds(20);
  ho.duration = milliseconds(20);
  ho.rate = 0.01;
  p.actions.push_back(ho);
  // Leaf 1 keeps a quarter of its shared buffer: the shrink and restore
  // paths run, and at this load the rest never fills (a 2% shrink strands
  // flows).
  FaultAction shrink;
  shrink.kind = FaultKind::kBufferShrink;
  shrink.at = milliseconds(30);
  shrink.duration = milliseconds(10);
  shrink.sw = 3;
  shrink.frac = 0.25;
  p.actions.push_back(shrink);
  return p;
}

// --- Tracing ------------------------------------------------------------------

/// Spans kept in memory and written out at exit.  Times are seconds from
/// the traced repetition's start; `parent` indexes spans_ (-1: root).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, std::uint64_t>> counts;
  };

  Tracer() : t0_(Clock::now()) {}

  int open(const std::string& name) {
    spans_.push_back({name, secs(t0_, Clock::now()), 0.0, stack_.empty() ? -1 : stack_.back(), {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end = secs(t0_, Clock::now());
    stack_.pop_back();
  }
  void count(int span, const char* key, std::uint64_t v) {
    spans_[static_cast<std::size_t>(span)].counts.emplace_back(key, v);
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += (spans_[i].end - spans_[i].start) - child[i];
    }
    return out;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d",
                   i, s.name.c_str(), s.start, s.end, s.parent);
      for (const auto& [k, v] : s.counts) {
        std::fprintf(f, ", \"%s\": %llu", k.c_str(), static_cast<unsigned long long>(v));
      }
      std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times `fn` from outside; with a tracer, also records it as a span.
template <typename F>
double phase(Tracer* tr, const char* name, F&& fn) {
  if (tr != nullptr) tr->open(name);
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  if (tr != nullptr) tr->close();
  return secs(a, b);
}

// --- One repetition -----------------------------------------------------------

struct Times {
  double topo = 0, scheme = 0, workload = 0, fault_arm = 0, check_arm = 0;
  double setup = 0, run = 0, finalize = 0, check_finalize = 0, teardown = 0, total = 0;
  double run_cpu = 0;
  std::vector<double> busy;  // per shard
};

struct Counts {
  std::uint64_t digest = 1469598103934665603ull;
  std::uint64_t events = 0, flows = 0, completed = 0, hosts = 0, switches = 0;
  std::uint64_t peak_heap = 0, event_slots = 0, pool_acquires = 0, arena_bytes = 0;
  std::uint64_t forwarded = 0, trimmed = 0, dropped = 0, ecn_marked = 0;
  std::uint64_t data_packets = 0, retransmitted = 0, spurious = 0, timeouts = 0, ho_bounced = 0;
  std::uint64_t duplicates = 0, out_of_order = 0;
  std::uint64_t link_cuts = 0, fault_dropped = 0, in_flight_dropped = 0, violations = 0;
  std::uint64_t windows = 0, cross_records = 0;
  Time sim_end = 0;
  std::string oracle_summary;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (i * 8)) & 0xff;
      digest *= 1099511628211ull;
    }
  }
};

struct Rep {
  Times t;
  Counts c;
  std::vector<double> setups;  // set-up-only samples taken before the repetition
  double speed = 1.0;          // host speed factor around it (see calibrate())
};

/// The switch/shard counters a slice span carries, read between slices.
struct SliceCounters {
  std::uint64_t events, forwarded, trimmed, dropped, windows, cross;
};

std::uint64_t switch_drops(const Switch::Stats& s) {
  return s.dropped_data + s.dropped_ho + s.dropped_ctrl + s.dropped_buffer_full +
         s.injected_drops + s.injected_ho_drops + s.injected_ctrl_drops;
}

SliceCounters slice_counters(ShardGroup& g, Network& net) {
  const Switch::Stats s = net.total_switch_stats();
  return {g.events_processed(), s.forwarded, s.trimmed, switch_drops(s), g.windows(),
          g.cross_records()};
}

struct Probes {
  double push_pop_ns = 0, deliver_ns = 0, receive_ns = 0;
};

Probes run_probes(Network& net, Switch& sw, Host& dst, std::uint32_t in_port, std::size_t heap);

/// Everything one repetition builds, destroyed in reverse order.
struct World {
  std::unique_ptr<ShardGroup> group;
  std::unique_ptr<Logger> log;
  std::unique_ptr<Network> net;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<InvariantOracle> oracle;
  std::vector<Host*> hosts;
  Switch* probe_sw = nullptr;    // the first leaf/edge switch (shard 0)
  std::uint32_t probe_port = 0;  // its first uplink
};

/// One workload's generated input: the flow count is the shortest prefix of
/// the seed's websearch arrivals that offers the workload's bytes, so every
/// seed offers about the same work.
struct Input {
  const Workload& w;
  std::uint64_t seed;
  std::size_t flows;
};

/// Set-up: from the first call into topo to the first event.
void setup(World& wd, const Input& in, int shards, Tracer* tr, Times& t) {
  const Workload& w = in.w;
  SchemeSetup s;
  t.setup = phase(tr, "setup", [&] {
    t.scheme = phase(tr, "scheme", [&] {
      s = make_scheme(SchemeKind::kDcp, SchemeOptions{});
      s.sw.inject_loss_rate = 0.005;
    });
    t.topo = phase(tr, "topo", [&] {
      wd.group = std::make_unique<ShardGroup>(shards);
      wd.log = std::make_unique<Logger>(LogLevel::kOff);
      wd.net = std::make_unique<Network>(*wd.group, *wd.log);
      if (w.fattree) {
        FatTreeParams fp;
        fp.k = 16;
        fp.sw = s.sw;
        FatTreeTopology topo = build_fattree(*wd.net, fp);
        wd.hosts = topo.hosts;
        wd.probe_sw = topo.edge[0][0];
        wd.probe_port = static_cast<std::uint32_t>(fp.k / 2);
      } else {
        ClosParams cp;
        cp.spines = 2;
        cp.leaves = 2;
        cp.hosts_per_leaf = 4;
        cp.sw = s.sw;
        ClosTopology topo = build_clos(*wd.net, cp);
        wd.hosts = topo.hosts;
        wd.probe_sw = topo.leaves[0];
        wd.probe_port = static_cast<std::uint32_t>(cp.hosts_per_leaf);
      }
    });
    t.scheme += phase(tr, "scheme", [&] { apply_scheme(*wd.net, s); });
    t.workload = phase(tr, "workload", [&] {
      FlowGenParams fg;
      fg.load = 0.4;
      fg.num_flows = in.flows;
      fg.seed = in.seed;
      generate_poisson_flows(*wd.net, wd.hosts, SizeDist::websearch(), fg);
    });
    if (w.faults) {
      t.fault_arm = phase(tr, "fault_arm", [&] {
        wd.injector = std::make_unique<FaultInjector>(*wd.net, fault_plan(), in.seed ^ 0xfa017);
      });
      t.check_arm = phase(tr, "check_arm", [&] {
        wd.oracle = std::make_unique<InvariantOracle>(*wd.net);
      });
    }
  });
}

double teardown(World& wd, Tracer* tr) {
  return phase(tr, "teardown", [&] {
    wd.oracle.reset();
    wd.injector.reset();
    wd.net.reset();
    wd.log.reset();
    wd.group.reset();
  });
}

/// Set-up time alone: builds the world and tears it down without running.
double setup_sample(const Input& in) {
  World wd;
  Times t;
  setup(wd, in, in.w.shards, nullptr, t);
  teardown(wd, nullptr);
  return t.setup;
}

/// The flow count for `seed`: generates a long arrival sequence in a
/// scratch world and cuts it where the offered bytes reach the target.
/// run.py asks for it in a process of its own (--count-flows), so the
/// scratch world never counts toward the measured process's peak RSS.
std::size_t count_flows(const Workload& w, std::uint64_t seed) {
  World wd;
  Times t;
  setup(wd, Input{w, seed, 20000}, 1, nullptr, t);
  std::size_t n = 0;
  double bytes = 0.0;
  for (const FlowRecord& rec : wd.net->records()) {
    ++n;
    bytes += static_cast<double>(rec.spec.bytes);
    if (bytes >= w.offered_gb * 1e9) break;
  }
  teardown(wd, nullptr);
  return n;
}

/// Runs one repetition of `w`.  With a tracer the run is driven through
/// run_to_paused on a grid of `grid` simulated seconds and probes are taken
/// after finalize.
Rep run_rep(const Input& in, int shards, Tracer* tr, Time grid, Probes* probes) {
  Rep r;
  Times& t = r.t;
  Counts& c = r.c;
  if (tr != nullptr) tr->open("rep");
  World wd;
  setup(wd, in, shards, tr, t);
  ShardGroup* group = wd.group.get();
  Network* net = wd.net.get();
  InvariantOracle* oracle = wd.oracle.get();

  CorePerfTimer perf(*group);
  const double cpu0 = cpu_now();
  t.run = phase(tr, "run", [&] {
    if (tr == nullptr) {
      net->run_until_done(kMaxSimTime);
      return;
    }
    SliceCounters prev = slice_counters(*group, *net);
    for (Time at = grid;; at += grid) {
      const int span = tr->open("slice");
      const Time reached = net->run_to_paused(at, kMaxSimTime);
      tr->close();
      const SliceCounters now = slice_counters(*group, *net);
      tr->count(span, "sim_time_ps", static_cast<std::uint64_t>(at));
      tr->count(span, "sim.events", now.events - prev.events);
      tr->count(span, "switch.forwarded", now.forwarded - prev.forwarded);
      tr->count(span, "switch.trimmed", now.trimmed - prev.trimmed);
      tr->count(span, "switch.dropped", now.dropped - prev.dropped);
      tr->count(span, "shard.windows", now.windows - prev.windows);
      tr->count(span, "shard.cross_records", now.cross - prev.cross);
      prev = now;
      if (reached != at) break;
    }
  });
  t.run_cpu = cpu_now() - cpu0;
  const CorePerf cp = perf.finish();

  t.finalize = phase(tr, "finalize", [&] {
    if (oracle) {
      t.check_finalize = phase(tr, "check_finalize", [&] { oracle->finalize(); });
      c.violations = oracle->violations().size();
      if (!oracle->ok()) c.oracle_summary = oracle->summary();
    }
    phase(tr, "digest", [&] {
      for (const FlowRecord& rec : net->records()) {
        ++c.flows;
        if (rec.complete()) ++c.completed;
        c.mix(static_cast<std::uint64_t>(rec.tx_done));
        c.mix(static_cast<std::uint64_t>(rec.rx_done));
        c.mix(rec.sender.data_packets_sent);
        c.mix(rec.sender.retransmitted_packets);
        c.mix(rec.sender.timeouts);
        c.mix(rec.receiver.bytes_received);
        c.mix(rec.receiver.out_of_order_packets);
        c.data_packets += rec.sender.data_packets_sent;
        c.retransmitted += rec.sender.retransmitted_packets;
        c.spurious += rec.sender.spurious_retransmissions;
        c.timeouts += rec.sender.timeouts;
        c.ho_bounced += rec.sender.ho_received;
        c.duplicates += rec.receiver.duplicate_packets;
        c.out_of_order += rec.receiver.out_of_order_packets;
      }
      c.events = group->events_processed();
      c.mix(c.events);
    });
  });

  // Layer counts, read after the timed phases.
  c.hosts = net->hosts().size();
  c.switches = net->switches().size();
  c.sim_end = group->max_now();
  for (int i = 0; i < group->size(); ++i) {
    const Simulator& sim = group->sim(i);
    c.peak_heap = std::max<std::uint64_t>(c.peak_heap, sim.peak_heap_size());
    c.event_slots += sim.event_slots_allocated();
    t.busy.push_back(static_cast<double>(group->busy_ns(i)) * 1e-9);
  }
  c.pool_acquires = cp.pool_acquires;
  c.arena_bytes = group->arena_bytes();
  const Switch::Stats ss = net->total_switch_stats();
  c.forwarded = ss.forwarded;
  c.trimmed = ss.trimmed;
  c.dropped = switch_drops(ss);
  c.ecn_marked = ss.ecn_marked;
  if (wd.injector) {
    const FaultInjector::Counters fc = wd.injector->counters();
    c.link_cuts = fc.link_cuts;
    c.fault_dropped = fc.dropped;
    c.in_flight_dropped = fc.in_flight_dropped;
  }
  c.windows = group->windows();
  c.cross_records = group->cross_records();

  if (probes != nullptr) {
    net->set_check_observer_all(nullptr);
    phase(tr, "probes", [&] {
      *probes = run_probes(*net, *wd.probe_sw, *wd.hosts[0], wd.probe_port, c.peak_heap);
    });
  }

  t.teardown = teardown(wd, tr);
  if (tr != nullptr) tr->close();
  t.total = t.setup + t.run + t.finalize + t.teardown;
  return r;
}

// --- Per-call layer probes (traced run only) ----------------------------------

/// Median ns per call over `batches` timed batches of `per` calls.
template <typename Setup, typename Body, typename Drain>
double per_call_ns(int batches, int per, Setup&& setup, Body&& body, Drain&& drain) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    setup();
    const auto a = Clock::now();
    for (int i = 0; i < per; ++i) body(i);
    const auto e = Clock::now();
    drain();
    ns.push_back(secs(a, e) * 1e9 / per);
  }
  return median(ns);
}

/// Drops every delivery: the channel probe's far end.
class ProbeSink final : public Node {
 public:
  ProbeSink(Simulator& sim, Logger& log) : Node(sim, log, 0, "probe_sink") {}
  using Node::receive;
  void receive(PacketPtr pkt, std::uint32_t) override { pkt.reset(); }
};

Probes run_probes(Network& net, Switch& sw, Host& dst, std::uint32_t in_port, std::size_t heap) {
  Probes p;

  // EventQueue push + pop_and_run at the workload's own peak heap depth.
  {
    EventQueue q;
    Time now = 0;
    Time at = 0;
    for (std::size_t i = 0; i < std::max<std::size_t>(heap, 1); ++i) q.push(++at, [] {});
    p.push_pop_ns = per_call_ns(
        21, 100000, [] {},
        [&](int) {
          q.push(++at, [] {});
          q.pop_and_run(now);
        },
        [] {});
  }

  // Channel::deliver into a sink, drained outside the timed batch.
  {
    Simulator sim;
    Logger log(LogLevel::kOff);
    ProbeSink sink(sim, log);
    Channel ch(sim, Bandwidth::gbps(100), microseconds(1));
    ch.connect(&sink, 0);
    const Time ser = ch.serialization(1000);
    std::vector<PacketPtr> batch;
    p.deliver_ns = per_call_ns(
        101, 256,
        [&] {
          batch.clear();
          for (int i = 0; i < 256; ++i) {
            Packet pk;
            pk.type = PktType::kData;
            pk.wire_bytes = 1000;
            pk.payload_bytes = 1000;
            batch.push_back(PacketPtr::make(std::move(pk)));
          }
        },
        [&](int i) { ch.deliver(std::move(batch[static_cast<std::size_t>(i)]), (i + 1) * ser); },
        [&] { sim.run(); });
  }

  // Switch::receive on the workload's own first edge/leaf switch: DCP data
  // toward one of its hosts, for a flow id no transport owns (the host counts
  // it unroutable), drained by running the switch's simulator briefly.
  {
    Simulator& sim = net.sim();
    std::vector<PacketPtr> batch;
    FlowId flow = 0xf0000000u;
    p.receive_ns = per_call_ns(
        101, 64,
        [&] {
          batch.clear();
          for (int i = 0; i < 64; ++i) {
            Packet pk;
            pk.type = PktType::kData;
            pk.tag = DcpTag::kData;
            pk.flow = ++flow;
            pk.src = dst.id();
            pk.dst = dst.id();
            pk.wire_bytes = 1000;
            pk.payload_bytes = 1000 - HeaderSizes::kDcpHeaderOnly;
            batch.push_back(PacketPtr::make(std::move(pk)));
          }
        },
        [&](int i) { sw.receive_fast(std::move(batch[static_cast<std::size_t>(i)]), in_port); },
        [&] { sim.run(sim.now() + milliseconds(1)); });
  }
  return p;
}

// --- Calibration ----------------------------------------------------------------

/// A fixed piece of CPU work that shares none of the simulator's code: a
/// binary-heap churn over pseudo-random keys plus dependent loads from a
/// 16 MiB table.  Its time tracks how fast the shared host runs right now.
/// The end-to-end times are scaled by kCalibRefSeconds / its time, i.e. to
/// a host on which it takes kCalibRefSeconds (its median on an idle 4-vCPU
/// x86-64 guest).  No change to the simulator can move it.
constexpr double kCalibRefSeconds = 0.235;

double calibration_kernel() {
  std::vector<std::uint64_t> table(2u << 20);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& v : table) v = (x = x * 6364136223846793005ull + 1442695040888963407ull) >> 11;
  std::vector<std::uint64_t> heap(4096);
  for (auto& v : heap) v = (x = x * 6364136223846793005ull + 1) >> 20;
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const auto a = Clock::now();
  std::uint64_t idx = 1, acc = 0;
  for (int i = 0; i < 1500000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t top = heap.back();
    idx = table[(idx ^ top) & (table.size() - 1)];
    heap.back() = top + (idx & 0xffff) + 1;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    acc += idx;
  }
  const auto b = Clock::now();
  if (acc == 42) std::fputs("", stderr);  // keep the loop live
  return secs(a, b);
}

/// Runs calibration_kernel() in a child process and returns its time, so
/// the kernel's table never counts toward this process's peak RSS.  Called
/// only between repetitions, when no shard worker thread is alive.
double calibrate() {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench_sim: pipe");
    std::exit(3);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_sim: fork");
    std::exit(3);
  }
  if (pid == 0) {
    close(fds[0]);
    const double s = calibration_kernel();
    _exit(write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s) ? 0 : 1);
  }
  close(fds[1]);
  double s = 0.0;
  const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!got || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench_sim: calibration child failed\n");
    std::exit(3);
  }
  return s;
}

// --- Output -------------------------------------------------------------------

class JsonOut {
 public:
  void num(const std::string& k, double v) { add(k, fmt(v)); }
  void integer(const std::string& k, std::uint64_t v) { add(k, std::to_string(v)); }
  void str(const std::string& k, const std::string& v) { add(k, quote(v)); }
  void raw(const std::string& k, const std::string& v) { add(k, v); }
  std::string done() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& v) {
    std::string e = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') e += '\\';
      e += (ch == '\n') ? ' ' : ch;
    }
    return e + "\"";
  }
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
  }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

void layer_counts(JsonOut& o, const Counts& c) {
  o.integer("topo.hosts", c.hosts);
  o.integer("topo.switches", c.switches);
  o.integer("workload.flows", c.flows);
  o.integer("sim.events", c.events);
  o.integer("sim.peak_heap", c.peak_heap);
  o.integer("sim.event_slots", c.event_slots);
  o.integer("net.pool_acquires", c.pool_acquires);
  o.num("net.pool_acquires_per_event", ratio(c.pool_acquires, c.events));
  o.num("net.arena_mb", static_cast<double>(c.arena_bytes) / 1e6);
  o.integer("switch.forwarded", c.forwarded);
  o.integer("switch.trimmed", c.trimmed);
  o.num("switch.trim_frac", ratio(c.trimmed, c.forwarded + c.trimmed));
  o.integer("switch.dropped", c.dropped);
  o.integer("switch.ecn_marked", c.ecn_marked);
  o.integer("transport.data_packets", c.data_packets);
  o.integer("transport.retransmitted", c.retransmitted);
  o.num("transport.retx_frac", ratio(c.retransmitted, c.data_packets));
  o.num("transport.spurious_frac", ratio(c.spurious, c.retransmitted));
  o.integer("transport.timeouts", c.timeouts);
  o.integer("transport.ho_bounced", c.ho_bounced);
  o.integer("receiver.duplicates", c.duplicates);
  o.integer("receiver.out_of_order", c.out_of_order);
  o.integer("fault.link_cuts", c.link_cuts);
  o.integer("fault.dropped", c.fault_dropped);
  o.integer("fault.in_flight_dropped", c.in_flight_dropped);
  o.integer("check.violations", c.violations);
  o.integer("shard.windows", c.windows);
  o.num("shard.events_per_window", ratio(c.events, c.windows));
  o.integer("shard.cross_records", c.cross_records);
  o.num("shard.cross_per_window", ratio(c.cross_records, c.windows));
}

/// Median of one Times (or Rep) field over the repetitions.
template <typename F>
double med(const std::vector<Rep>& reps, F&& field) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    if constexpr (std::is_invocable_v<F, const Rep&>) {
      v.push_back(field(r));
    } else {
      v.push_back(field(r.t));
    }
  }
  return median(v);
}

/// The end-to-end times, scaled to the reference host speed (see
/// calibrate()), and the same medians as measured ("wall.*").
void phase_times(JsonOut& o, const std::vector<Rep>& reps, int shards) {
  std::vector<double> setups, setups_wall;
  for (const Rep& r : reps) {
    for (double x : r.setups) {
      setups.push_back(x * r.speed);
      setups_wall.push_back(x);
    }
  }
  o.num("setup_s", median(setups));
  o.num("run_s", med(reps, [](const Rep& r) { return r.t.run * r.speed; }));
  o.num("total_s", med(reps, [](const Rep& r) { return r.t.total * r.speed; }));
  o.num("wall.setup_s", median(setups_wall));
  o.num("wall.run_s", med(reps, [](const Times& t) { return t.run; }));
  o.num("wall.total_s", med(reps, [](const Times& t) { return t.total; }));
  o.num("env.host_speed", med(reps, [](const Rep& r) { return r.speed; }));
  o.num("finalize_s", med(reps, [](const Times& t) { return t.finalize; }));
  o.num("teardown_s", med(reps, [](const Times& t) { return t.teardown; }));
  o.num("topo.build_s", med(reps, [](const Times& t) { return t.topo; }));
  o.num("scheme.apply_s", med(reps, [](const Times& t) { return t.scheme; }));
  o.num("workload.gen_s", med(reps, [](const Times& t) { return t.workload; }));
  o.num("fault.arm_s", med(reps, [](const Times& t) { return t.fault_arm; }));
  o.num("check.arm_s", med(reps, [](const Times& t) { return t.check_arm; }));
  o.num("check.finalize_s", med(reps, [](const Times& t) { return t.check_finalize; }));
  o.num("shard.cpu_s", med(reps, [](const Times& t) { return t.run_cpu; }));
  // Busy time exists only under sharding; shard.wait_s.N = run - busy.N.
  for (int i = 0; i < std::max(shards, 2); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::string n = std::to_string(i);
    auto busy = [&](const Times& t) { return shards > 1 && idx < t.busy.size() ? t.busy[idx] : 0.0; };
    o.num("shard.busy_s." + n, med(reps, busy));
    o.num("shard.wait_s." + n,
          med(reps, [&](const Times& t) { return busy(t) > 0.0 ? t.run - busy(t) : 0.0; }));
  }
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string spans_path;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  bool count = false;
  std::size_t flows = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--count-flows") {
      count = true;
      continue;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "%s needs a value\n", k.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (k == "--workload") {
      name = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      spans_path = v;
    } else if (k == "--flows") {
      flows = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N (--count-flows | --flows N --seconds S "
                 "--trace 0|1 [--spans FILE])\n",
                 argv[0]);
    return 2;
  }

  if (count) {
    std::printf("%zu\n", count_flows(*w, seed));
    return 0;
  }
  if (flows == 0) {
    std::fprintf(stderr, "--flows N is required (see --count-flows)\n");
    return 2;
  }
  const Input in{*w, seed, flows};
  std::vector<std::string> failures;
  std::vector<Rep> reps;    // untraced
  std::vector<Rep> traced;  // traced run only
  Tracer tracer;
  Probes probes;
  const double steal0 = steal_now();
  const auto start = Clock::now();
  // A traced run pauses on a grid of about 200 slices over the run, sized
  // by a first repetition it then discards: that one also pays for growing
  // the thread-local pools, which would bias the overhead comparison.
  const Time grid =
      trace ? std::max<Time>(microseconds(1),
                             run_rep(in, w->shards, nullptr, 0, nullptr).c.sim_end / 200)
            : 0;
  // Calibrations bracket every repetition; a repetition's speed factor
  // comes from the two around it.
  double before = calibrate();
  auto timed = [&](Tracer* tr, Probes* pr, std::vector<double> setups) {
    Rep r = run_rep(in, w->shards, tr, grid, pr);
    const double after = calibrate();
    r.setups = std::move(setups);
    r.setups.push_back(r.t.setup);
    r.speed = kCalibRefSeconds / (0.5 * (before + after));
    before = after;
    return r;
  };
  if (!trace) {
    do {
      std::vector<double> su;
      for (int i = 0; i < w->setup_samples; ++i) su.push_back(setup_sample(in));
      reps.push_back(timed(nullptr, nullptr, std::move(su)));
    } while (reps.size() < kMinReps || secs(start, Clock::now()) < seconds);
  } else {
    // Untraced and traced repetitions alternate, so each pair sees the same
    // host; the first traced one keeps its spans and runs the probes.
    for (int i = 0; i < kTracePairs; ++i) {
      reps.push_back(timed(nullptr, nullptr, {}));
      Tracer discard;
      traced.push_back(timed(i == 0 ? &tracer : &discard, i == 0 ? &probes : nullptr, {}));
    }
  }
  const double rss = peak_rss_mb();
  const double steal = steal_now() - steal0;
  const Counts& c = reps.front().c;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].c.digest != c.digest || reps[i].c.events != c.events) {
      failures.push_back("repetition " + std::to_string(i) + " diverged from repetition 0");
      break;
    }
  }
  for (const Rep& r : traced) {
    if (r.c.digest != c.digest || r.c.events != c.events) {
      failures.push_back("traced digest " + hex(r.c.digest) + " != untraced " + hex(c.digest));
      break;
    }
  }
  if (c.violations != 0) failures.push_back("oracle: " + c.oracle_summary);

  // The sharded workload must reproduce the serial run bit for bit.
  if (w->shards > 1) {
    const Rep serial = run_rep(in, 1, nullptr, 0, nullptr);
    if (serial.c.digest != c.digest || serial.c.events != c.events) {
      failures.push_back("shards=" + std::to_string(w->shards) + " digest " + hex(c.digest) +
                         " events " + std::to_string(c.events) + " != serial digest " +
                         hex(serial.c.digest) + " events " + std::to_string(serial.c.events));
    }
  }

  JsonOut m;
  m.num("peak_rss_mb", rss);
  phase_times(m, reps, w->shards);
  layer_counts(m, c);
  m.num("sim.events_per_s",
        static_cast<double>(c.events) / med(reps, [](const Times& t) { return t.run; }));
  m.num("env.steal_s", steal);
  m.integer("env.hardware_threads", std::thread::hardware_concurrency());
  m.integer("env.lto", 0);  // perfbench/CMakeLists.txt never enables LTO

  if (trace) {
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      overhead.push_back(traced[i].t.run * traced[i].speed - reps[i].t.run * reps[i].speed);
    }
    m.num("trace.overhead_s", median(overhead));
    m.integer("trace.spans", tracer.spans().size());
    const std::map<std::string, double> self = tracer.self_times();
    for (const char* span : {"rep", "setup", "scheme", "topo", "workload", "fault_arm", "check_arm",
                             "run", "slice", "finalize", "check_finalize", "digest", "probes",
                             "teardown"}) {
      const auto it = self.find(span);
      m.num(std::string("trace.self_s.") + span, it != self.end() ? it->second : 0.0);
    }
    m.num("probe.sim.push_pop_ns", probes.push_pop_ns);
    m.num("probe.net.deliver_ns", probes.deliver_ns);
    m.num("probe.switch.receive_ns", probes.receive_ns);
    if (!spans_path.empty() && !tracer.write(spans_path)) {
      failures.push_back("cannot write spans to " + spans_path);
    }
  }

  std::string fl;
  for (const std::string& f : failures) fl += (fl.empty() ? "" : ", ") + JsonOut::quote(f);
  JsonOut out;
  out.str("workload", w->name);
  out.integer("seed", seed);
  out.str("digest", hex(c.digest));
  out.integer("events", c.events);
  out.integer("flows", c.flows);
  out.integer("reps", reps.size());
  out.integer("attempted", c.flows * reps.size());
  std::uint64_t completed = 0;
  for (const Rep& r : reps) completed += r.c.completed;
  out.integer("completed", completed);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.raw("failures", "[" + fl + "]");
  out.raw("metrics", m.done());
  std::printf("%s\n", out.done().c_str());
  return failures.empty() ? 0 : 1;
}
