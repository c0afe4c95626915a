// FEC reliability tier: the (k, m) wire layout and its decode rule, the
// receiver fed exact loss patterns chunk by chunk, the group transport
// end-to-end on the testbed and the WAN, recovery-counter accounting, and
// determinism — a FEC sweep must be bit-identical across DCP_JOBS, and the
// oracle-armed fuzz batch must stay clean with the scheme forced to FEC.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/fuzzer.h"
#include "check/observer.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "topo/dumbbell.h"
#include "transports/fec.h"

namespace dcp {
namespace {

// ---------------------------------------------------------------------------
// Wire layout
// ---------------------------------------------------------------------------

TEST(FecLayout, GroupGeometry) {
  // 10 data packets at (k=4, m=1): groups of 5 wire slots, tail group of 2
  // data + 1 parity.
  const FecLayout l(/*k=*/4, /*m=*/1, /*total_data=*/10);
  EXPECT_EQ(l.full_groups, 2u);
  EXPECT_EQ(l.rem, 2u);
  EXPECT_EQ(l.groups, 3u);
  EXPECT_EQ(l.wire_total, 2u * 5 + 2 + 1);
  EXPECT_EQ(l.k_of(0), 4u);
  EXPECT_EQ(l.k_of(2), 2u);
  EXPECT_EQ(l.wire_begin(2), 10u);
  EXPECT_EQ(l.wire_end(2), 13u);
  // Wire PSN 4 is group 0's parity; PSN 12 is the tail group's parity.
  EXPECT_FALSE(l.is_data(4));
  EXPECT_TRUE(l.is_data(3));
  EXPECT_EQ(l.group_of(4), 0u);
  EXPECT_EQ(l.group_of(12), 2u);
  EXPECT_FALSE(l.is_data(12));
  EXPECT_TRUE(l.is_data(11));
  EXPECT_EQ(l.data_index(11), 9u);
  EXPECT_EQ(l.data_index(5), 4u);
}

TEST(FecLayout, GroupDecodesFromAnyKChunks) {
  // MDS rule: a group decodes once any k of its k + m chunks arrived, in
  // any mix of data and parity; one chunk short of k is a NACK round.
  const FecLayout l(/*k=*/8, /*m=*/2, /*total_data=*/19);
  EXPECT_TRUE(l.decodable(0, /*got_data=*/6, /*got_parity=*/2));
  EXPECT_FALSE(l.decodable(0, /*got_data=*/6, /*got_parity=*/1));
  EXPECT_TRUE(l.decodable(0, /*got_data=*/8, /*got_parity=*/0));
  // The tail group holds rem = 3 data chunks, so 3 of its 5 decode it.
  ASSERT_EQ(l.k_of(2), 3u);
  EXPECT_TRUE(l.decodable(2, /*got_data=*/1, /*got_parity=*/2));
  EXPECT_TRUE(l.decodable(2, /*got_data=*/3, /*got_parity=*/0));
  EXPECT_FALSE(l.decodable(2, /*got_data=*/2, /*got_parity=*/0));
  EXPECT_FALSE(l.decodable(2, /*got_data=*/0, /*got_parity=*/2));
}

// ---------------------------------------------------------------------------
// Receiver, driven chunk by chunk
// ---------------------------------------------------------------------------

/// Records the NACKs the receiving host puts on the wire.
class NackLog final : public CheckObserver {
 public:
  void on_host_send(const Packet& pkt) override {
    if (pkt.type == PktType::kNack) requested.push_back(pkt.sack_psn);
  }
  std::vector<std::uint32_t> requested;  // wire PSNs, in send order
};

/// A (k=4, m=2) FEC flow between two cabled hosts whose sender never starts
/// within the test, so every chunk the receiver sees is one the test hands
/// it: exact loss patterns that ambient random loss cannot pin down.
struct FecRxFixture {
  NackLog nacks;  // declared first: outlives the simulator that points at it
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  FlowId id = 0;
  ReceiverTransport* rx = nullptr;
  FecLayout layout;

  explicit FecRxFixture(std::uint64_t bytes)
      : layout(4, 2, static_cast<std::uint32_t>((bytes + kMtuPayload - 1) / kMtuPayload)) {
    SchemeOptions opt;
    opt.fec_k = 4;
    opt.fec_m = 2;
    const BackToBack b2b = build_back_to_back(net);
    apply_scheme(net, make_scheme(SchemeKind::kFec, opt));
    sim.set_check_observer(&nacks);
    FlowSpec spec;
    spec.src = b2b.a->id();
    spec.dst = b2b.b->id();
    spec.bytes = bytes;
    spec.start_time = seconds(1);
    id = net.start_flow(spec);
    rx = b2b.b->receiver(id);
  }

  /// Hands wire chunk `psn` to the receiver; data chunks carry their slice
  /// of the flow's bytes, parity chunks carry a full MTU of redundancy.
  void deliver(std::uint32_t psn, bool retransmit = false) {
    const FlowSpec& spec = net.record(id).spec;
    Packet p;
    p.type = PktType::kData;
    p.flow = id;
    p.src = spec.src;
    p.dst = spec.dst;
    p.psn = psn;
    p.is_retransmit = retransmit;
    p.payload_bytes = kMtuPayload;
    if (layout.is_data(psn)) {
      const std::uint64_t left = spec.bytes - std::uint64_t{layout.data_index(psn)} * kMtuPayload;
      p.payload_bytes = static_cast<std::uint32_t>(std::min<std::uint64_t>(left, kMtuPayload));
    }
    p.wire_bytes = p.payload_bytes + 64;
    rx->on_packet(p);
  }
};

TEST(FecReceiver, GroupCompletesOnTheKthChunkInAnyMix) {
  // 12 data chunks: three full groups of 4 data + 2 parity (wire PSNs 0-17).
  FecRxFixture f(12'000);
  f.deliver(0);
  f.deliver(1);
  f.deliver(4);  // parity: 3 of 4 chunks, one short of k
  EXPECT_EQ(f.rx->stats().bytes_received, 2'000u);
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 0u);
  EXPECT_EQ(f.rx->stats().acks_sent, 0u);
  f.deliver(5);  // second parity: k chunks, data 2 and 3 rebuilt
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 2u);
  EXPECT_EQ(f.rx->stats().bytes_received, 4'000u);
  EXPECT_EQ(f.rx->stats().acks_sent, 1u);  // the group ACK
  EXPECT_FALSE(f.rx->complete());
}

TEST(FecReceiver, DuplicateChunkDoesNotCountTowardK) {
  // Only distinct chunks decode: a repeated data chunk must not stand in
  // for a missing one.
  FecRxFixture f(12'000);
  f.deliver(0);
  f.deliver(0);
  f.deliver(1);
  f.deliver(4);
  EXPECT_EQ(f.rx->stats().duplicate_packets, 1u);
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 0u);
  EXPECT_EQ(f.rx->stats().acks_sent, 0u);
  f.deliver(5);
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 2u);
  EXPECT_EQ(f.rx->stats().acks_sent, 1u);
}

TEST(FecReceiver, LateChunkOfDecodedGroupIsDuplicateAndReAcked) {
  FecRxFixture f(12'000);
  for (std::uint32_t psn : {0u, 1u, 4u, 5u}) f.deliver(psn);
  ASSERT_EQ(f.rx->stats().acks_sent, 1u);
  f.deliver(2);  // the data chunk the decode already rebuilt
  EXPECT_EQ(f.rx->stats().duplicate_packets, 1u);
  EXPECT_EQ(f.rx->stats().bytes_received, 4'000u);
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 2u);
  EXPECT_EQ(f.rx->stats().acks_sent, 2u);  // re-ACK in case the first was lost
}

TEST(FecReceiver, TailGroupDecodesFromItsOwnK) {
  // 10,500 B = 11 data chunks: groups 0 and 1 are full, the tail group holds
  // rem = 3 data chunks (wire PSNs 12-14, the last one 500 B) and parity
  // 15-16.  Three of its five chunks decode it, and the decode credits the
  // short last chunk's real size.
  FecRxFixture f(10'500);
  ASSERT_EQ(f.layout.groups, 3u);
  ASSERT_EQ(f.layout.k_of(2), 3u);
  for (std::uint32_t psn : {0u, 1u, 2u, 3u, 6u, 7u, 8u, 9u}) f.deliver(psn);
  f.deliver(12);
  f.deliver(15);
  EXPECT_FALSE(f.rx->complete());
  f.deliver(16);
  EXPECT_TRUE(f.rx->complete());
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 2u);
  EXPECT_EQ(f.rx->stats().bytes_received, 10'500u);
  EXPECT_GE(f.net.record(f.id).rx_done, 0);
}

TEST(FecReceiver, QuietGroupShortOfKNacksOnlyItsMissingData) {
  // Group 0 gets data 0, 1 and parity 4: one chunk short.  After the quiet
  // period the receiver asks for data 2 and 3, never for the lost parity 5;
  // one retransmitted data chunk then completes the group by decode.
  FecRxFixture f(12'000);
  f.deliver(0);
  f.deliver(1);
  f.deliver(4);
  f.sim.run(microseconds(200));  // past the NACK delay, short of the RTO follow-up
  EXPECT_EQ(f.nacks.requested, (std::vector<std::uint32_t>{2, 3}));
  f.deliver(2, /*retransmit=*/true);
  EXPECT_EQ(f.rx->stats().nack_recovered_packets, 1u);
  EXPECT_EQ(f.rx->stats().decode_recovered_packets, 1u);
  EXPECT_EQ(f.rx->stats().bytes_received, 4'000u);
}

// ---------------------------------------------------------------------------
// Transport end-to-end (testbed)
// ---------------------------------------------------------------------------

TEST(FecTransport, CleanFlowCompletesWithoutRepair) {
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kFec;
  p.flows[0].bytes = 2ull * 1000 * 1000;
  p.max_time = milliseconds(20);
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_GT(r.sender.parity_packets_sent, 0u);
  EXPECT_EQ(r.sender.retransmitted_packets, 0u);
  EXPECT_EQ(r.receiver.decode_recovered_packets, 0u);
  EXPECT_EQ(r.receiver.nack_recovered_packets, 0u);
  EXPECT_GT(r.goodput_gbps, 1.0);
}

TEST(FecTransport, LossyFlowRecoversViaDecode) {
  // 2% ambient loss at the cross switch: most groups lose <= m chunks and
  // repair from parity without a single retransmission round trip.
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kFec;
  p.loss_rate = 0.02;
  p.flows[0].bytes = 2ull * 1000 * 1000;
  p.max_time = milliseconds(50);
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_GT(r.receiver.decode_recovered_packets, 0u);
  // Parity-decode repair must dominate NACK repair at this loss rate.
  EXPECT_GT(r.receiver.decode_recovered_packets, r.receiver.nack_recovered_packets);
}

TEST(FecTransport, HeavyLossFallsBackToNack) {
  // At 20% loss, (8, 2) groups regularly lose more than m chunks and the
  // per-group NACK path has to carry the flow home.
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kFec;
  p.loss_rate = 0.20;
  p.flows[0].bytes = 500ull * 1000;
  p.max_time = milliseconds(100);
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.receiver.bytes_received, p.flows[0].bytes);
  EXPECT_GT(r.receiver.nack_recovered_packets, 0u);
  EXPECT_GT(r.sender.retransmitted_packets, 0u);
}

TEST(FecTransport, OracleCleanUnderLoss) {
  // The full invariant catalogue (psn-monotonic, exactly-once completion,
  // completion-consistency, recovery-accounting, no-silent-deadlock) armed
  // over a lossy FEC drill.
  WorldSpec p = experiment_world(Experiment::kFaultDrill);
  p.scheme = SchemeKind::kFec;
  p.flows[0].bytes = 1ull * 1000 * 1000;
  p.max_time = milliseconds(50);
  p.oracle = true;
  FaultAction a;
  a.kind = FaultKind::kDrop;
  a.at = microseconds(100);
  a.duration = microseconds(400);
  a.rate = 0.05;
  a.sw = 0;
  p.faults.actions.push_back(a);
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  for (const InvariantViolation& v : r.violations) {
    ADD_FAILURE() << v.invariant << ": " << v.detail;
  }
}

TEST(FecTransport, KnobsReachTheWire) {
  // A wide group (k=16, m=4) sends 25% parity overhead; check the counter
  // matches the geometry the layout predicts.
  WorldSpec p = experiment_world(Experiment::kLongFlow);
  p.scheme = SchemeKind::kFec;
  p.opt.fec_k = 16;
  p.opt.fec_m = 4;
  p.flows[0].bytes = 1ull * 1000 * 1000;
  p.max_time = milliseconds(20);
  SimWorld w(p);
  const FlowResult r = read_flow(w);
  EXPECT_TRUE(r.completed);
  const std::uint64_t data_pkts = r.sender.data_packets_sent - r.sender.parity_packets_sent;
  const FecLayout l(16, 4, static_cast<std::uint32_t>(data_pkts));
  EXPECT_EQ(r.sender.parity_packets_sent, static_cast<std::uint64_t>(l.groups) * 4);
}

// ---------------------------------------------------------------------------
// Determinism: DCP_JOBS and the forced-FEC fuzz batch
// ---------------------------------------------------------------------------

struct TrialDigest {
  double goodput = 0.0;
  Time elapsed = 0;
  bool completed = false;
  std::uint64_t retransmitted = 0;
  std::uint64_t parity = 0;
  std::uint64_t decoded = 0;
  std::uint64_t events = 0;

  bool operator==(const TrialDigest&) const = default;
};

std::vector<TrialDigest> fec_sweep(unsigned jobs) {
  SweepRunner pool(jobs);
  pool.set_progress(false);
  const double rates[] = {0.0, 0.01, 0.03};
  return pool.run(6, [&](std::size_t i) {
    WorldSpec p = experiment_world(Experiment::kLongFlow);
    p.scheme = SchemeKind::kFec;
    p.opt.fec_k = i % 2 == 0 ? 8 : 4;
    p.opt.fec_m = i % 2 == 0 ? 2 : 1;
    p.loss_rate = rates[i / 2];
    p.flows[0].bytes = 1ull * 1000 * 1000;
    p.max_time = milliseconds(20);
    SimWorld w(p);
    const FlowResult r = read_flow(w);
    TrialDigest d;
    d.goodput = r.goodput_gbps;
    d.elapsed = r.elapsed;
    d.completed = r.completed;
    d.retransmitted = r.sender.retransmitted_packets;
    d.parity = r.sender.parity_packets_sent;
    d.decoded = r.receiver.decode_recovered_packets;
    d.events = r.core.events_processed;
    return d;
  });
}

TEST(FecSweepDigest, ParallelSweepBitIdenticalToSerial) {
  const std::vector<TrialDigest> serial = fec_sweep(1);
  const std::vector<TrialDigest> parallel = fec_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

TEST(FecFuzz, ForcedFecBatchOracleClean) {
  // The generated scenario pool with the scheme pinned to FEC: every
  // topology x workload x fault draw must run oracle-clean.
  for (std::size_t i = 0; i < 200; ++i) {
    WorldSpec s = generate_fuzz_scenario(/*seed=*/4200 + i);
    s.scheme = SchemeKind::kFec;
    const FuzzVerdict v = run_fuzz_scenario(s);
    EXPECT_FALSE(v.violated) << "seed " << 4200 + i << ": " << v.invariant << " — " << v.message;
  }
}

}  // namespace
}  // namespace dcp
