// Deterministic checkpoint/restore (sim/snapshot.h, harness/checkpoint.h):
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
#include "harness/checkpoint.h"
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

FuzzScenario clean_scenario(SchemeKind k) {
  FuzzScenario s;
  s.seed = 42;
  s.scheme = k;
  s.spines = 2;
  s.leaves = 4;
  s.hosts_per_leaf = 2;
  s.max_time = milliseconds(5);
  s.flows = {
      {0, 5, 64 * 1024, 4096, microseconds(5)},
      {2, 7, 24 * 1024, 0, microseconds(20)},
      {6, 1, 96 * 1024, 16384, microseconds(40)},
      {4, 3, 8 * 1024, 4096, microseconds(120)},
  };
  return s;
}

FuzzScenario faulted_scenario(SchemeKind k) {
  FuzzScenario s = clean_scenario(k);
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
FuzzScenario stopped_scenario(SchemeKind k) {
  FuzzScenario s = clean_scenario(k);
  s.max_time = microseconds(60);
  s.flows = {
      {0, 5, 8 * 1024, 4096, microseconds(5)},
      {2, 7, 1024 * 1024, 16384, microseconds(10)},
      {6, 1, 2 * 1024 * 1024, 0, microseconds(20)},
  };
  return s;
}

WorldSpec spec_for(const FuzzScenario& s) { return fuzz_world_spec(s, FuzzOptions{}); }

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
    const WorldSpec ws = spec_for(clean_scenario(k));
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
  FuzzOptions opt;
  opt.factory_override = std::make_shared<SetupArmedFactory>();
  const WorldSpec ws = fuzz_world_spec(clean_scenario(SchemeKind::kTimeout), opt);
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
    const FuzzScenario s = faulted_scenario(k);
    const WorldSpec ws = spec_for(s);

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
  FuzzOptions opt;
  opt.factory_override = std::make_shared<DcpBitmapFactory>();
  const FuzzScenario clean = clean_scenario(SchemeKind::kDcp);
  const FuzzScenario faulted = faulted_scenario(SchemeKind::kDcp);
  for (const FuzzScenario* s : {&clean, &faulted}) {
    const char* what = s->faults.actions.empty() ? "clean" : "faulted";
    const WorldSpec ws = fuzz_world_spec(*s, opt);
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
      FuzzScenario s;
      Time pause;
      std::size_t unfinished_ends;
    } cases[] = {{"clean", clean_scenario(k), microseconds(75), 0},
                 {"stopped", stopped_scenario(k), microseconds(30), 4}};
    for (const auto& c : cases) {
      const std::string name = std::string(scheme_name(k)) + " " + c.name;
      WorldSpec ws = spec_for(c.s);
      ws.force_shards = 1;
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
        ws.force_shards = shards;
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
  const FuzzScenario s = clean_scenario(SchemeKind::kDcp);
  WorldDigest serial;
  {
    ScopedEnv e("DCP_SHARDS", "1");
    serial = cold_digest(spec_for(s));
  }
  {
    ScopedEnv e("DCP_SHARDS", "4");
    const WorldDigest sharded = resumed_digest(spec_for(s), microseconds(75), "sharded");
    EXPECT_EQ(serial.value, sharded.value);
    EXPECT_EQ(serial.events, sharded.events);
  }
}

TEST(Snapshot, ImageEncodeDecodeRoundTrip) {
  const WorldSpec ws = spec_for(faulted_scenario(SchemeKind::kDcp));
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
  FuzzScenario s = clean_scenario(SchemeKind::kTcp);
  const WorldSpec ws = spec_for(s);
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
  const WorldSpec ws = spec_for(faulted_scenario(SchemeKind::kDcp));
  SimWorld a(ws);
  a.run_to(microseconds(60));
  SnapshotImage img;
  std::string err;
  ASSERT_TRUE(a.save(img, &err)) << err;

  FuzzScenario other = faulted_scenario(SchemeKind::kDcp);
  other.flows[0].bytes += 1024;  // different world
  SimWorld b(spec_for(other));
  EXPECT_FALSE(b.restore(img, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

// Eight pooled trials restore concurrently from one shared image: each
// builds its own world, so the image is the only state they share.
TEST(Snapshot, PooledRestoresFromOneImageMatchColdRuns) {
  const WorldSpec ws = spec_for(clean_scenario(SchemeKind::kDcp));
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
    const FuzzScenario s = generate_fuzz_scenario(seed);
    const WorldSpec ws = spec_for(s);

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
      EXPECT_EQ(s.scheme, SchemeKind::kTcp) << "seed " << seed << ": " << err;
      continue;
    }
    SimWorld b(ws);
    ASSERT_TRUE(b.restore(img, &err)) << "seed " << seed << ": " << err;
    b.run_until_done();
    const WorldDigest wd = b.digest();
    const FuzzVerdict wv = b.finalize_verdict();

    ASSERT_EQ(cd.value, wd.value) << "seed " << seed << " (" << scheme_name(s.scheme) << ")";
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
