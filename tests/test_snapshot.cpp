// Deterministic checkpoint/restore (sim/snapshot.h, harness/world.h):
// a run resumed from a snapshot at time T must be BIT-IDENTICAL to the run
// that never stopped — same WorldDigest (per-flow completion stamps and
// stats, switch counters) and same events_processed — across every
// snapshottable scheme, the §4.5 bitmap receiver, and serial and sharded
// event cores.  Also covers re-save byte-equality (save(restore(img)) ==
// img), image versioning, the TcpLite unsupported-scheme refusal, pooled
// restores from one shared image, and a 200-seed oracle-armed fuzz batch
// through the restore path.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "core/dcp_transport.h"
#include "harness/config.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "transports/timeout.h"

namespace dcp {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      setenv(name_, prev_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string prev_;
};

constexpr SchemeKind kSnapshottable[] = {
    SchemeKind::kPfc,     SchemeKind::kIrn,  SchemeKind::kIrnEcmp,
    SchemeKind::kMpRdma,  SchemeKind::kDcp,  SchemeKind::kCx5,
    SchemeKind::kTimeout, SchemeKind::kRackTlp, SchemeKind::kFec};

WorldSpec clean_scenario(SchemeKind k) {
  WorldSpec s = fuzz_spec(42);
  s.scheme = k;
  s.clos.spines = 2;
  s.clos.leaves = 4;
  s.clos.hosts_per_leaf = 2;
  s.max_time = milliseconds(5);
  s.flows = {
      {0, 5, 64 * 1024, 4096, microseconds(5)},
      {2, 7, 24 * 1024, 0, microseconds(20)},
      {6, 1, 96 * 1024, 16384, microseconds(40)},
      {4, 3, 8 * 1024, 4096, microseconds(120)},
  };
  return s;
}

WorldSpec faulted_scenario(SchemeKind k) {
  WorldSpec s = clean_scenario(k);
  auto add = [&](FaultKind kind, double at_us, double dur_us, double rate) {
    FaultAction a;
    a.kind = kind;
    a.at = microseconds(at_us);
    a.duration = microseconds(dur_us);
    a.rate = rate;
    s.faults.actions.push_back(a);
  };
  add(FaultKind::kDrop, 30, 120, 0.05);
  add(FaultKind::kHoLoss, 50, 80, 0.3);
  add(FaultKind::kCorrupt, 80, 60, 0.02);
  s.faults.actions.push_back([] {
    FaultAction a;
    a.kind = FaultKind::kLinkFlap;
    a.at = microseconds(70);
    a.duration = microseconds(50);
    a.drop_in_flight = true;
    a.sw = 2;  // a leaf
    return a;
  }());
  s.faults.actions.push_back([] {
    FaultAction a;
    a.kind = FaultKind::kBufferShrink;
    a.at = microseconds(45);
    a.duration = microseconds(150);
    a.frac = 0.3;
    return a;
  }());
  return s;
}

/// The clean scenario with larger flows, cut by max_time while the last
/// two are mid-transfer.
WorldSpec stopped_scenario(SchemeKind k) {
  WorldSpec s = clean_scenario(k);
  s.max_time = microseconds(60);
  s.flows = {
      {0, 5, 8 * 1024, 4096, microseconds(5)},
      {2, 7, 1024 * 1024, 16384, microseconds(10)},
      {6, 1, 2 * 1024 * 1024, 0, microseconds(20)},
  };
  return s;
}

void expect_same_records(const std::vector<FlowRecord>& want, const std::vector<FlowRecord>& got,
                         const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const FlowRecord& a = want[i];
    const FlowRecord& b = got[i];
    const std::string at = what + ", flow " + std::to_string(a.spec.id);
    EXPECT_EQ(a.spec.id, b.spec.id) << at;
    EXPECT_EQ(a.rx_done, b.rx_done) << at;
    EXPECT_EQ(a.tx_done, b.tx_done) << at;
    EXPECT_EQ(a.sender.data_packets_sent, b.sender.data_packets_sent) << at;
    EXPECT_EQ(a.sender.bytes_sent, b.sender.bytes_sent) << at;
    EXPECT_EQ(a.sender.retransmitted_packets, b.sender.retransmitted_packets) << at;
    EXPECT_EQ(a.sender.spurious_retransmissions, b.sender.spurious_retransmissions) << at;
    EXPECT_EQ(a.sender.timeouts, b.sender.timeouts) << at;
    EXPECT_EQ(a.sender.ho_received, b.sender.ho_received) << at;
    EXPECT_EQ(a.sender.cnp_received, b.sender.cnp_received) << at;
    EXPECT_EQ(a.sender.parity_packets_sent, b.sender.parity_packets_sent) << at;
    EXPECT_EQ(a.receiver.data_packets, b.receiver.data_packets) << at;
    EXPECT_EQ(a.receiver.duplicate_packets, b.receiver.duplicate_packets) << at;
    EXPECT_EQ(a.receiver.out_of_order_packets, b.receiver.out_of_order_packets) << at;
    EXPECT_EQ(a.receiver.bytes_received, b.receiver.bytes_received) << at;
    EXPECT_EQ(a.receiver.ho_received, b.receiver.ho_received) << at;
    EXPECT_EQ(a.receiver.acks_sent, b.receiver.acks_sent) << at;
    EXPECT_EQ(a.receiver.decode_recovered_packets, b.receiver.decode_recovered_packets) << at;
    EXPECT_EQ(a.receiver.nack_recovered_packets, b.receiver.nack_recovered_packets) << at;
  }
}

WorldDigest cold_digest(const WorldSpec& ws) {
  SimWorld w(ws);
  w.run_until_done();
  return w.digest();
}

/// Pauses a run at T, snapshots, restores into a FRESH world, finishes it,
/// and returns the resumed world.  Also asserts re-save byte-equality:
/// saving the restored world again must reproduce the image exactly.
std::unique_ptr<SimWorld> resumed_world(const WorldSpec& ws, Time t, const char* what) {
  SimWorld a(ws);
  a.run_to(t);
  SnapshotImage img;
  std::string err;
  EXPECT_TRUE(a.save(img, &err)) << what << ": save failed: " << err;

  auto b = std::make_unique<SimWorld>(ws);
  EXPECT_TRUE(b->restore(img, &err)) << what << ": restore failed: " << err;

  SnapshotImage resaved;
  EXPECT_TRUE(b->save(resaved, &err)) << what << ": re-save failed: " << err;
  EXPECT_TRUE(img == resaved) << what << ": re-save is not byte-identical (state "
                              << img.state.size() << " vs " << resaved.state.size()
                              << " bytes)";

  b->run_until_done();
  return b;
}

WorldDigest resumed_digest(const WorldSpec& ws, Time t, const char* what) {
  return resumed_world(ws, t, what)->digest();
}

/// A Timeout-scheme receiver that arms one timer in each heap class while
/// the world is built (start_flow constructs it), so both keys are drawn
/// in the setup phase.  The first data packet extends the deadline timer
/// lazily, which keeps its setup key and moves only its true deadline.
/// Each timer records the (t, seq) key it fired under.
class SetupArmedReceiver final : public OooReceiver {
 public:
  struct Fired {
    Time t = -1;
    std::uint64_t seq = 0;
    bool operator==(const Fired&) const = default;
  };
  static constexpr Time kMainAt = microseconds(30);
  static constexpr Time kDeadlineAt = microseconds(50);
  static constexpr Time kExtendedAt = microseconds(90);

  SetupArmedReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : OooReceiver(sim, host, spec, cfg) {
    main_.arm_at(kMainAt);
    deadline_.arm_deadline_at(kDeadlineAt);
  }
  void on_packet(Packet pkt) override {
    if (!extended_) {
      extended_ = true;
      deadline_.arm_deadline_at(kExtendedAt);
    }
    OooReceiver::on_packet(std::move(pkt));
  }

  Fired main_fired;
  Fired deadline_fired;

 protected:
  void checkpoint_extra(StateIO& io) override {
    OooReceiver::checkpoint_extra(io);
    io.pod(extended_);
    io.pod(main_fired);
    io.pod(deadline_fired);
    io.timer(main_);
    io.timer(deadline_);
  }

 private:
  bool extended_ = false;
  Timer main_{sim_, [this] { main_fired = {sim_.now(), sim_.current_event_seq()}; }};
  Timer deadline_{sim_, [this] { deadline_fired = {sim_.now(), sim_.current_event_seq()}; }};
};
using SetupArmedFactory = TransportPair<TimeoutSender, SetupArmedReceiver>;

// ---------------------------------------------------------------------------

TEST(Snapshot, CleanResumeBitIdenticalAcrossSchemes) {
  for (SchemeKind k : kSnapshottable) {
    const WorldSpec ws = clean_scenario(k);
    const WorldDigest cold = cold_digest(ws);
    ASSERT_GT(cold.events, 0u);
    for (double t_us : {15.0, 60.0, 200.0}) {
      const WorldDigest warm = resumed_digest(ws, microseconds(t_us), scheme_name(k));
      EXPECT_EQ(cold.value, warm.value)
          << scheme_name(k) << ": digest drift after resume at " << t_us << "us";
      EXPECT_EQ(cold.events, warm.events)
          << scheme_name(k) << ": events_processed drift after resume at " << t_us << "us";
    }
  }

  // Timers whose saved keys were drawn during setup, one per heap class.
  // At 15 us neither has fired, and the first flow's deadline timer is
  // already extended; at 60 us the main one has fired, and the deadline
  // timer of each flow that is receiving has surfaced and been re-keyed at
  // its true deadline, still under its setup seq.
  WorldSpec ws = clean_scenario(SchemeKind::kTimeout);
  ws.factory_override = std::make_shared<SetupArmedFactory>();
  SimWorld cold(ws);
  cold.run_until_done();
  const auto fired = [](SimWorld& w, const FlowRecord& r) {
    const auto& rx =
        dynamic_cast<SetupArmedReceiver&>(*w.net().host(r.spec.dst)->receiver(r.spec.id));
    return std::pair{rx.main_fired, rx.deadline_fired};
  };
  for (const FlowRecord& r : cold.net().records()) {
    const auto [main, deadline] = fired(cold, r);
    EXPECT_EQ(main.t, SetupArmedReceiver::kMainAt);
    EXPECT_GE(deadline.t, SetupArmedReceiver::kDeadlineAt);
  }
  for (double t_us : {15.0, 60.0, 200.0}) {
    const std::string what = "setup-armed timers at " + std::to_string(t_us) + "us";
    const std::unique_ptr<SimWorld> warm = resumed_world(ws, microseconds(t_us), what.c_str());
    EXPECT_EQ(cold.digest(), warm->digest()) << what;
    for (const FlowRecord& r : cold.net().records()) {
      EXPECT_EQ(fired(cold, r), fired(*warm, r)) << what << ", flow " << r.spec.id;
    }
  }
}

TEST(Snapshot, FaultedOracleArmedResumeBitIdentical) {
  for (SchemeKind k : kSnapshottable) {
    const WorldSpec ws = faulted_scenario(k);

    SimWorld cold(ws);
    cold.run_until_done();
    const WorldDigest cd = cold.digest();
    const FuzzVerdict cv = cold.finalize_verdict();

    // T=60us sits inside every fault window of the plan: drop and buffer
    // shrink active, HO-loss just armed, the flap and corrupt still ahead.
    for (double t_us : {60.0, 130.0}) {
      SimWorld a(ws);
      a.run_to(microseconds(t_us));
      SnapshotImage img;
      std::string err;
      ASSERT_TRUE(a.save(img, &err)) << scheme_name(k) << ": " << err;

      SimWorld b(ws);
      ASSERT_TRUE(b.restore(img, &err)) << scheme_name(k) << ": " << err;
      b.run_until_done();
      const WorldDigest wd = b.digest();
      const FuzzVerdict wv = b.finalize_verdict();

      EXPECT_EQ(cd.value, wd.value) << scheme_name(k) << " at " << t_us << "us";
      EXPECT_EQ(cd.events, wd.events) << scheme_name(k) << " at " << t_us << "us";
      EXPECT_EQ(cv.violated, wv.violated) << scheme_name(k);
      EXPECT_EQ(cv.invariant, wv.invariant) << scheme_name(k);
      EXPECT_EQ(cv.num_violations, wv.num_violations) << scheme_name(k);
      EXPECT_EQ(cv.all_complete, wv.all_complete) << scheme_name(k);
    }
  }
}

// Every scheme builds the counter receiver, so the §4.5 bitmap variant is
// reached through a factory override.
using DcpBitmapFactory = TransportPair<DcpSender, DcpBitmapReceiver>;

TEST(Snapshot, DcpBitmapReceiverResumesBitIdentical) {
  for (WorldSpec ws : {clean_scenario(SchemeKind::kDcp), faulted_scenario(SchemeKind::kDcp)}) {
    const char* what = ws.faults.actions.empty() ? "clean" : "faulted";
    ws.factory_override = std::make_shared<DcpBitmapFactory>();
    const WorldDigest cold = cold_digest(ws);
    ASSERT_GT(cold.events, 0u);
    for (double t_us : {10.0, 50.0, 75.0, 150.0, 400.0}) {
      const WorldDigest warm = resumed_digest(ws, microseconds(t_us), what);
      EXPECT_EQ(cold.value, warm.value) << what << ": digest drift after resume at " << t_us
                                        << "us";
      EXPECT_EQ(cold.events, warm.events)
          << what << ": events_processed drift after resume at " << t_us << "us";
    }
  }
}

TEST(Snapshot, ShardResumeMatrix) {
  // Fault-free scenarios (fault plans force serial); leaves=4 admits 4
  // shards.  Every (scenario, scheme, shards) run, uninterrupted or
  // resumed, must give the serial run's flow records field by field and
  // its digest.  The stopped scenario ends at max_time with two flows
  // mid-transfer, so it also pins the records of the four ends that never
  // completed: each holds its live stats at the stop.
  for (SchemeKind k : {SchemeKind::kDcp, SchemeKind::kIrn}) {
    const struct {
      const char* name;
      WorldSpec s;
      Time pause;
      std::size_t unfinished_ends;
    } cases[] = {{"clean", clean_scenario(k), microseconds(75), 0},
                 {"stopped", stopped_scenario(k), microseconds(30), 4}};
    for (const auto& c : cases) {
      const std::string name = std::string(scheme_name(k)) + " " + c.name;
      WorldSpec ws = c.s;
      ws.shards = 1;
      SimWorld serial(ws);
      serial.run_until_done();

      std::size_t unfinished = 0;
      for (const FlowRecord& r : serial.net().records()) {
        const FlowId id = r.spec.id;
        if (r.rx_done < 0) {
          ++unfinished;
          const ReceiverStats& live = serial.net().host(r.spec.dst)->receiver(id)->stats();
          EXPECT_GT(r.receiver.data_packets, 0u) << name << ", flow " << id;
          EXPECT_EQ(std::memcmp(&r.receiver, &live, sizeof live), 0) << name << ", flow " << id;
        }
        if (r.tx_done < 0) {
          ++unfinished;
          const SenderStats& live = serial.net().host(r.spec.src)->sender(id)->stats();
          EXPECT_GT(r.sender.data_packets_sent, 0u) << name << ", flow " << id;
          EXPECT_EQ(std::memcmp(&r.sender, &live, sizeof live), 0) << name << ", flow " << id;
        }
      }
      EXPECT_EQ(unfinished, c.unfinished_ends) << name;

      for (int shards : {1, 2, 4}) {
        ws.shards = shards;
        const std::string what = name + " shards=" + std::to_string(shards);
        SimWorld cold(ws);
        cold.run_until_done();
        expect_same_records(serial.net().records(), cold.net().records(), what);
        EXPECT_EQ(serial.digest(), cold.digest()) << what;

        const std::unique_ptr<SimWorld> warm = resumed_world(ws, c.pause, what.c_str());
        expect_same_records(serial.net().records(), warm->net().records(), what + " resumed");
        EXPECT_EQ(serial.digest(), warm->digest()) << what << " resumed";
      }
    }
  }
}

TEST(Snapshot, ShardedResumeMatchesSerialDigest) {
  // The sharded resume must agree not only with its own cold run but with
  // the serial world entirely (sharding is bit-identical by construction,
  // and snapshots must not break that).
  const WorldSpec s = clean_scenario(SchemeKind::kDcp);
  WorldDigest serial;
  {
    ScopedEnv e("DCP_SHARDS", "1");
    serial = cold_digest(s);
  }
  {
    ScopedEnv e("DCP_SHARDS", "4");
    const WorldDigest sharded = resumed_digest(s, microseconds(75), "sharded");
    EXPECT_EQ(serial.value, sharded.value);
    EXPECT_EQ(serial.events, sharded.events);
  }
}

TEST(Snapshot, ImageEncodeDecodeRoundTrip) {
  const WorldSpec ws = faulted_scenario(SchemeKind::kDcp);
  SimWorld w(ws);
  w.run_to(microseconds(90));
  SnapshotImage img;
  std::string err;
  ASSERT_TRUE(w.save(img, &err)) << err;
  ASSERT_FALSE(img.state.empty());

  const std::vector<std::uint8_t> bytes = img.encode();
  SnapshotImage back;
  ASSERT_TRUE(SnapshotImage::decode(bytes, back));
  EXPECT_TRUE(img == back);

  // Truncation and corruption must be rejected, not misparsed.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 9);
  EXPECT_FALSE(SnapshotImage::decode(truncated, back));
  std::vector<std::uint8_t> corrupt = bytes;
  corrupt[0] ^= 0xff;  // magic
  EXPECT_FALSE(SnapshotImage::decode(corrupt, back));
}

TEST(Snapshot, DecodeRefusesVersion1Image) {
  SnapshotImage img;
  img.clocks.resize(1);
  img.state = {0xAB, 0xCD};
  const std::vector<std::uint8_t> bytes = img.encode();
  SnapshotImage back;
  ASSERT_TRUE(SnapshotImage::decode(bytes, back));

  // The version word follows the 4-byte magic.  Stamping an older version
  // on an otherwise well-formed image must be refused on the version
  // alone: version 2's switch section still carried the route-cache
  // config, a prefetched-draw buffer and a flap epoch, version 3's
  // selective-repeat transports saved their queue count and cursor,
  // version 4's GBN receiver saved an ACK-coalescing counter and its DCP
  // receivers laid out their shared datapath fields per tracker, version 5
  // saved packets in the old field order with a uid and each channel's
  // delivered-byte count, version 6's host sections ended with a
  // receiver-stat journal, and version 7's header carried a setup-phase
  // sequence bound between `at` and `next_seq`...
  std::vector<std::uint8_t> stamped = bytes;
  for (const std::uint32_t old_version : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    std::memcpy(stamped.data() + 4, &old_version, sizeof old_version);
    EXPECT_FALSE(SnapshotImage::decode(stamped, back)) << "version " << old_version;
  }
  // ...and so must a true version-1 layout, which carried two execution-
  // mode bytes (lanes, devirt) after magic, version, fingerprint, shards.
  const std::uint32_t v1 = 1;
  std::memcpy(stamped.data() + 4, &v1, sizeof v1);
  std::vector<std::uint8_t> legacy = stamped;
  legacy.insert(legacy.begin() + 20, {1, 1});
  EXPECT_FALSE(SnapshotImage::decode(legacy, back));
}

TEST(Snapshot, TcpSchemeRefusesSnapshot) {
  const WorldSpec ws = clean_scenario(SchemeKind::kTcp);
  SimWorld w(ws);
  w.run_to(microseconds(50));
  SnapshotImage img;
  std::string err;
  EXPECT_FALSE(w.save(img, &err));
  EXPECT_NE(err.find("not snapshottable"), std::string::npos) << err;
  // The refused world keeps running normally.
  w.run_until_done();
  EXPECT_TRUE(w.net().all_flows_done());
}

TEST(Snapshot, RestoreRefusesMismatchedSpec) {
  const WorldSpec ws = faulted_scenario(SchemeKind::kDcp);
  SimWorld a(ws);
  a.run_to(microseconds(60));
  SnapshotImage img;
  std::string err;
  ASSERT_TRUE(a.save(img, &err)) << err;

  WorldSpec other = faulted_scenario(SchemeKind::kDcp);
  other.flows[0].bytes += 1024;  // different world
  SimWorld b(other);
  EXPECT_FALSE(b.restore(img, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

/// A websearch world with incast and a fault plan, as a config file
/// describes it: generated flows, not explicit ones.
WorldSpec generated_clos_world() {
  const char* text =
      "experiment = websearch\n"
      "spines = 2\nleaves = 2\nhosts_per_leaf = 4\n"
      "flows = 30\nload = 0.4\nseed = 5\nmax_time_ms = 50\n"
      "incast = true\nincast_fan_in = 4\nincast_bytes = 32768\n"
      "[faults]\n"
      "drop at=100us dur=300us rate=0.02\n"
      "link_flap at=250us dur=150us sw=0 port=1 drop_inflight=true\n";
  auto cfg = parse_experiment_config(text);
  EXPECT_TRUE(cfg.has_value());
  return cfg->spec;
}

TEST(Snapshot, GeneratedWorkloadsResumeBitIdentical) {
  // Bench-style worlds: Poisson + incast + faults on a Clos, a lossy long
  // flow with Poisson background on the testbed, and unequal paths.
  LongFlowParams lf;
  lf.flow_bytes = 2'000'000;
  lf.loss_rate = 0.01;
  lf.max_time = milliseconds(20);
  WorldSpec testbed = long_flow_spec(lf);
  testbed.poisson_flows = 20;
  WanFlowParams wp;  // a WAN without wire loss holds no state outside the checkpoint
  wp.wan.regions = 2;
  wp.wan.wan_delay = microseconds(100);
  wp.flow_bytes = 1'000'000;
  wp.max_time = milliseconds(20);
  WorldSpec wan = wan_flow_spec(wp);
  wan.poisson_flows = 10;
  const struct {
    const char* name;
    WorldSpec ws;
  } cases[] = {{"websearch+incast+faults", generated_clos_world()},
               {"longflow+loss+poisson", testbed},
               {"unequal_paths", unequal_paths_spec(SchemeKind::kDcp, 4.0, 2'000'000)},
               {"clean wan+poisson", wan}};
  for (const auto& c : cases) {
    ASSERT_GT(SimWorld(c.ws).net().records().size(), 1u) << c.name;
    const WorldDigest cold = cold_digest(c.ws);
    for (double t_us : {100.0, 300.0}) {
      const std::string what = std::string(c.name) + " at " + std::to_string(t_us) + "us";
      EXPECT_EQ(cold, resumed_digest(c.ws, microseconds(t_us), what.c_str())) << what;
    }
  }
}

TEST(Snapshot, WorldsWithStateOutsideEveryCheckpointRefuse) {
  // A collective's member state and a lossy WAN's wire-loss streams are in
  // no checkpoint: save and restore refuse rather than diverge.
  CollectiveExpParams cp;
  cp.groups = 1;
  cp.clos.leaves = 2;
  WanFlowParams wp;
  wp.wan.regions = 2;
  wp.wan.wan_delay = milliseconds(1);
  wp.wan.wan_loss_rate = 0.01;
  const struct {
    WorldSpec ws;
    const char* reason;
  } cases[] = {{collectives_spec(cp), "collective"}, {wan_flow_spec(wp), "WAN wire-loss"}};
  for (const auto& c : cases) {
    SimWorld w(c.ws);
    w.run_to(microseconds(50));
    SnapshotImage img;
    std::string err;
    EXPECT_FALSE(w.save(img, &err)) << c.reason;
    EXPECT_NE(err.find(c.reason), std::string::npos) << err;
    SimWorld fresh(c.ws);
    EXPECT_FALSE(fresh.restore(img, &err)) << c.reason;
  }
  // A clean WAN has no wire-loss streams, so it saves.
  wp.wan.wan_loss_rate = 0;
  SimWorld clean(wan_flow_spec(wp));
  clean.run_to(microseconds(50));
  SnapshotImage img;
  std::string err;
  EXPECT_TRUE(clean.save(img, &err)) << err;
}

TEST(Snapshot, RestoreRefusesOneGeneratorOrTopologyFieldOff) {
  const WorldSpec ws = generated_clos_world();
  SimWorld a(ws);
  a.run_to(microseconds(100));
  SnapshotImage img;
  std::string err;
  ASSERT_TRUE(a.save(img, &err)) << err;
  WorldSpec load = ws;
  load.load += 0.01;
  WorldSpec topo = ws;
  topo.clos.leaf_spine_delay += 1;
  WorldSpec link = ws;
  link.clos.link = Bandwidth::gbps(40);  // a field with no text form
  WorldSpec rate = ws;
  rate.faults.actions[0].rate += 1e-11;  // past the ninth significant digit
  WorldSpec budget = ws;
  budget.max_time += 1;  // one picosecond
  for (const WorldSpec* other : {&load, &topo, &link, &rate, &budget}) {
    SimWorld b(*other);
    EXPECT_FALSE(b.restore(img, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
  }
  SimWorld same(ws);
  EXPECT_TRUE(same.restore(img, &err)) << err;
}

// Eight pooled trials restore concurrently from one shared image: each
// builds its own world, so the image is the only state they share.
TEST(Snapshot, PooledRestoresFromOneImageMatchColdRuns) {
  const WorldSpec ws = clean_scenario(SchemeKind::kDcp);
  const WorldDigest cold = cold_digest(ws);

  SnapshotImage img;
  {
    SimWorld prefix(ws);
    prefix.run_to(microseconds(60));
    std::string err;
    ASSERT_TRUE(prefix.save(img, &err)) << err;
  }

  SweepRunner pool(4);
  pool.set_progress(false);
  auto digests = pool.run(8, [&](std::size_t) {
    SimWorld w(ws);
    std::string err;
    if (!w.restore(img, &err)) {
      ADD_FAILURE() << "restore failed: " << err;
      return WorldDigest{};
    }
    w.run_until_done();
    return w.digest();
  });
  for (const WorldDigest& d : digests) {
    EXPECT_EQ(cold.value, d.value);
    EXPECT_EQ(cold.events, d.events);
  }
}

TEST(Snapshot, FuzzBatch200ThroughRestorePath) {
  // 200 oracle-armed random scenarios: whatever the seed draws (scheme,
  // topology, flows, faults), pausing at T and restoring into a fresh
  // world must reproduce the uninterrupted verdict and digest exactly.
  std::size_t restored = 0;
  for (std::uint64_t seed = 3000; seed < 3200; ++seed) {
    const WorldSpec ws = generate_fuzz_scenario(seed);

    SimWorld cold(ws);
    cold.run_until_done();
    const WorldDigest cd = cold.digest();
    const FuzzVerdict cv = cold.finalize_verdict();

    SimWorld a(ws);
    a.run_to(microseconds(150));
    SnapshotImage img;
    std::string err;
    if (!a.save(img, &err)) {
      // TcpLite scenarios are the only legitimate refusal.
      EXPECT_EQ(ws.scheme, SchemeKind::kTcp) << "seed " << seed << ": " << err;
      continue;
    }
    SimWorld b(ws);
    ASSERT_TRUE(b.restore(img, &err)) << "seed " << seed << ": " << err;
    b.run_until_done();
    const WorldDigest wd = b.digest();
    const FuzzVerdict wv = b.finalize_verdict();

    ASSERT_EQ(cd.value, wd.value) << "seed " << seed << " (" << scheme_name(ws.scheme) << ")";
    ASSERT_EQ(cd.events, wd.events) << "seed " << seed;
    ASSERT_EQ(cv.violated, wv.violated) << "seed " << seed;
    ASSERT_EQ(cv.invariant, wv.invariant) << "seed " << seed;
    ASSERT_EQ(cv.all_complete, wv.all_complete) << "seed " << seed;
    ++restored;
  }
  // The batch must actually exercise the restore path, not skip everything.
  EXPECT_GE(restored, 150u);
}

}  // namespace
}  // namespace dcp
