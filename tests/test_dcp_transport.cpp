// Behavioural tests for DCP-RNIC: message layout, header sizing, HO-based
// retransmission, bitmap-free receiver counting, sRetryNo reconciliation,
// the coarse-grained timeout fallback and the §4.5 bitmap receiver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <type_traits>

#include "core/dcp_transport.h"
#include "harness/scheme.h"
#include "sim/snapshot.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"
#include "workload/flowgen.h"

namespace dcp {
namespace {

TEST(MessageLayout, SingleMessageWhenMsgBytesZero) {
  MessageLayout l(10'000, 0);
  EXPECT_EQ(l.num_msgs, 1u);
  EXPECT_EQ(l.total_pkts, 10u);
  EXPECT_EQ(l.msg_pkts(0), 10u);
  EXPECT_EQ(l.msn_of_psn(9), 0u);
}

TEST(MessageLayout, UniformMessagesWithTail) {
  MessageLayout l(10'500, 4'000);
  EXPECT_EQ(l.total_pkts, 11u);
  EXPECT_EQ(l.pkts_per_full_msg, 4u);
  EXPECT_EQ(l.num_msgs, 3u);
  EXPECT_EQ(l.msg_pkts(0), 4u);
  EXPECT_EQ(l.msg_pkts(1), 4u);
  EXPECT_EQ(l.msg_pkts(2), 3u);  // tail
  EXPECT_EQ(l.msn_of_psn(0), 0u);
  EXPECT_EQ(l.msn_of_psn(3), 0u);
  EXPECT_EQ(l.msn_of_psn(4), 1u);
  EXPECT_EQ(l.msn_of_psn(10), 2u);
  EXPECT_EQ(l.msg_start_psn(2), 8u);
}

TEST(MessageLayout, ZeroByteFlowStillHasOnePacket) {
  MessageLayout l(0, 0);
  EXPECT_EQ(l.total_pkts, 1u);
  EXPECT_EQ(l.num_msgs, 1u);
}

TEST(DcpHeader, PerOpSizes) {
  // Write: 57 + RETH(16) in EVERY packet (order tolerance, §4.4).
  EXPECT_EQ(dcp_data_header_bytes(RdmaOp::kWrite), 73u);
  // Send: 57 + SSN(3).
  EXPECT_EQ(dcp_data_header_bytes(RdmaOp::kSend), 60u);
  // Write-with-Imm: 57 + RETH + SSN.
  EXPECT_EQ(dcp_data_header_bytes(RdmaOp::kWriteWithImm), 76u);
}

// ---------------------------------------------------------------------------
// Scenario fixtures: DCP across one trimming switch.
// ---------------------------------------------------------------------------

struct DcpFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  Star star;

  explicit DcpFixture(SwitchConfig sw, int hosts = 3) {
    star = build_star(net, hosts, sw);
    apply_scheme(net, make_scheme(SchemeKind::kDcp));
  }

  FlowId flow(int from, int to, std::uint64_t bytes, std::uint64_t msg = 0) {
    FlowSpec spec;
    spec.src = star.hosts[static_cast<std::size_t>(from)]->id();
    spec.dst = star.hosts[static_cast<std::size_t>(to)]->id();
    spec.bytes = bytes;
    spec.msg_bytes = msg;
    return net.start_flow(spec);
  }

  DcpSender* sender(FlowId id) {
    return dynamic_cast<DcpSender*>(net.host(net.record(id).spec.src)->sender(id));
  }
  DcpReceiver* receiver(FlowId id) {
    return dynamic_cast<DcpReceiver*>(net.host(net.record(id).spec.dst)->receiver(id));
  }
};

SwitchConfig dcp_switch() {
  SwitchConfig sw = make_scheme(SchemeKind::kDcp).sw;
  return sw;
}

TEST(DcpTransport, CleanPathNoRetransmissionsNoHo) {
  DcpFixture f(dcp_switch());
  const FlowId id = f.flow(0, 2, 500'000);
  f.net.run_until_done(seconds(1));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.sender.retransmitted_packets, 0u);
  EXPECT_EQ(rec.sender.ho_received, 0u);
  EXPECT_EQ(rec.sender.timeouts, 0u);
  EXPECT_EQ(rec.receiver.bytes_received, 500'000u);
}

TEST(DcpTransport, TrimmedPacketsRetransmittedPrecisely) {
  SwitchConfig sw = dcp_switch();
  sw.inject_loss_rate = 0.05;  // P4-style forced trimming
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 1'000'000);
  f.net.run_until_done(seconds(1));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  // Every retransmission is HO-triggered (precise), none spurious: the
  // number of retransmitted packets equals the number of HO notifications.
  EXPECT_GT(rec.sender.ho_received, 0u);
  DcpSender* snd = f.sender(id);
  ASSERT_NE(snd, nullptr);
  EXPECT_EQ(snd->dcp_stats().ho_triggered_retx + snd->dcp_stats().timeout_retx_packets,
            rec.sender.retransmitted_packets);
  EXPECT_EQ(rec.sender.timeouts, 0u);  // no RTO needed (R3)
  EXPECT_EQ(rec.receiver.bytes_received, 1'000'000u);
}

TEST(DcpTransport, RetransmissionsAreBatchedOverPcie) {
  SwitchConfig sw = dcp_switch();
  sw.inject_loss_rate = 0.10;
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 2'000'000);
  f.net.run_until_done(seconds(1));
  ASSERT_TRUE(f.net.record(id).complete());
  DcpSender* snd = f.sender(id);
  ASSERT_NE(snd, nullptr);
  const auto& ds = snd->dcp_stats();
  ASSERT_GT(ds.ho_triggered_retx, 0u);
  // Batching (up to 16/fetch) means strictly fewer PCIe round trips than
  // retransmitted packets once losses cluster.
  EXPECT_LE(ds.pcie_fetches, ds.ho_triggered_retx);
  EXPECT_EQ(snd->retransq().total_pushed(), ds.ho_triggered_retx + ds.stale_ho);
}

TEST(DcpTransport, ReceiverCompletesMessagesInOrder) {
  DcpFixture f(dcp_switch());
  const FlowId id = f.flow(0, 2, 100'000, 20'000);  // 5 messages
  f.net.run_until_done(seconds(1));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  DcpReceiver* rcv = f.receiver(id);
  ASSERT_NE(rcv, nullptr);
  EXPECT_EQ(rcv->tracker().emsn(), 5u);
}

TEST(DcpTransport, SilentDropRecoveredByCoarseTimeout) {
  // Disable trimming so losses are *silent* (no HO generated) — the
  // lossless-CP assumption is violated and the coarse timeout must save us.
  SwitchConfig sw = dcp_switch();
  sw.trimming = false;
  sw.inject_loss_rate = 0.02;
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 300'000, 50'000);
  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GT(rec.sender.timeouts, 0u);
  EXPECT_EQ(rec.receiver.bytes_received, 300'000u);
}

TEST(DcpTransport, HoLossFallbackRecoversEveryMessage) {
  // Trimming is ON, so losses do produce HO notifications — but the
  // control queue itself drops them (inject_ho_loss_rate): the injected
  // violation of the lossless-control-plane assumption.  The precise
  // HO-driven path silently loses its signal, so the sender's retry
  // counters (sRetryNo/rRetryNo) must escalate to the coarse timeout and
  // still deliver every message.
  SwitchConfig sw = dcp_switch();
  sw.inject_loss_rate = 0.05;     // data losses -> trims -> HO packets
  sw.inject_ho_loss_rate = 0.8;   // ...which the control queue then eats
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 300'000, 50'000);
  f.net.run_until_done(seconds(5));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GT(rec.sender.timeouts, 0u);  // the fallback escalation fired
  EXPECT_EQ(rec.receiver.bytes_received, 300'000u);
  const Switch::Stats stats = f.net.total_switch_stats();
  EXPECT_GT(stats.injected_ho_drops, 0u);  // the fault actually engaged
}

TEST(DcpTransport, RetryRoundsDoNotCorruptCounting) {
  // Heavy silent loss + small messages: many sRetryNo rounds; counting must
  // still complete each message exactly once.
  SwitchConfig sw = dcp_switch();
  sw.trimming = false;
  sw.inject_loss_rate = 0.10;
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 100'000, 10'000);
  f.net.run_until_done(seconds(5));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  DcpReceiver* rcv = f.receiver(id);
  EXPECT_EQ(rcv->tracker().emsn(), 10u);
  EXPECT_GT(rcv->dcp_stats().counter_resets, 0u);
}

TEST(DcpTransport, HoBounceSwapsDirection) {
  SwitchConfig sw = dcp_switch();
  sw.inject_loss_rate = 0.3;
  DcpFixture f(sw);
  const FlowId id = f.flow(0, 2, 200'000);
  f.net.run_until_done(seconds(1));
  ASSERT_TRUE(f.net.record(id).complete());
  DcpReceiver* rcv = f.receiver(id);
  const FlowRecord& rec = f.net.record(id);
  EXPECT_EQ(rcv->dcp_stats().ho_bounced, rec.sender.ho_received + 0u);
}

TEST(DcpTransport, MessageWindowNeverExceedsOutstandingLimit) {
  DcpFixture f(dcp_switch());
  const FlowId id = f.flow(0, 2, 2'000'000, 100'000);  // 20 messages
  // Snapshot invariant mid-flight.
  bool ok = true;
  DcpSender* snd = nullptr;
  for (int i = 0; i < 200 && !f.net.all_flows_done(); ++i) {
    f.sim.run(f.sim.now() + microseconds(10));
    snd = f.sender(id);
    if (snd != nullptr) {
      // una_msn grows monotonically and the window caps outstanding MSNs.
      ok = ok && snd->una_msn() <= 20u;
    }
  }
  f.net.run_until_done(seconds(1));
  EXPECT_TRUE(ok);
  ASSERT_TRUE(f.net.record(id).complete());
}

// ---------------------------------------------------------------------------
// §4.5 orthogonality: the bitmap-receiver variant behaves identically at
// the protocol level while paying n bits instead of log2(n).
// ---------------------------------------------------------------------------

// Every scheme builds the counter receiver; these tests swap in the bitmap.
using DcpBitmapFactory = TransportPair<DcpSender, DcpBitmapReceiver>;

TEST(DcpBitmapVariant, CompletesUnderTrimmingLikeCounterReceiver) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.inject_loss_rate = 0.05;
  s.factory = std::make_shared<DcpBitmapFactory>();
  Star star = build_star(net, 3, s.sw);
  apply_scheme(net, s);

  FlowSpec spec;
  spec.src = star.hosts[0]->id();
  spec.dst = star.hosts[2]->id();
  spec.bytes = 1'000'000;
  spec.msg_bytes = 200'000;
  const FlowId id = net.start_flow(spec);
  net.run_until_done(seconds(5));
  const FlowRecord& rec = net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.receiver.bytes_received, 1'000'000u);
  EXPECT_EQ(rec.sender.timeouts, 0u);  // HO retransmission unaffected
  auto* rcv = dynamic_cast<DcpBitmapReceiver*>(net.host(spec.dst)->receiver(id));
  ASSERT_NE(rcv, nullptr);
  EXPECT_EQ(rcv->emsn(), 5u);
  // The memory trade-off Table 3 quantifies: n bits vs 2 B/message.
  EXPECT_GE(rcv->tracking_bytes(), 1000u / 8);
}

TEST(DcpBitmapVariant, MatchesCounterReceiverResults) {
  // Same workload, both receiver flavours: byte counts, retransmission
  // totals and timeout counts must agree (the protocol is unchanged).
  auto run_variant = [](bool bitmap) {
    Simulator sim;
    Logger log{LogLevel::kOff};
    Network net{sim, log};
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    s.sw.inject_loss_rate = 0.02;
    if (bitmap) s.factory = std::make_shared<DcpBitmapFactory>();
    Star star = build_star(net, 4, s.sw);
    apply_scheme(net, s);
    std::vector<FlowId> ids;
    for (int i = 0; i < 3; ++i) {
      FlowSpec spec;
      spec.src = star.hosts[static_cast<std::size_t>(i)]->id();
      spec.dst = star.hosts[3]->id();
      spec.bytes = 400'000;
      spec.msg_bytes = 100'000;
      ids.push_back(net.start_flow(spec));
    }
    net.run_until_done(seconds(5));
    std::uint64_t bytes = 0, timeouts = 0;
    bool all = true;
    for (FlowId id : ids) {
      const FlowRecord& rec = net.record(id);
      all = all && rec.complete();
      bytes += rec.receiver.bytes_received;
      timeouts += rec.sender.timeouts;
    }
    EXPECT_TRUE(all);
    return std::pair<std::uint64_t, std::uint64_t>(bytes, timeouts);
  };
  const auto counter = run_variant(false);
  const auto bitmap = run_variant(true);
  EXPECT_EQ(counter.first, bitmap.first);   // identical delivered bytes
  EXPECT_EQ(counter.first, 3u * 400'000);
  EXPECT_EQ(counter.second, 0u);
  EXPECT_EQ(bitmap.second, 0u);
}

TEST(DcpBitmapVariant, SilentLossStillRecoversViaTimeout) {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  s.sw.trimming = false;  // silent drops
  s.sw.inject_loss_rate = 0.05;
  s.factory = std::make_shared<DcpBitmapFactory>();
  Star star = build_star(net, 3, s.sw);
  apply_scheme(net, s);
  FlowSpec spec;
  spec.src = star.hosts[0]->id();
  spec.dst = star.hosts[2]->id();
  spec.bytes = 300'000;
  spec.msg_bytes = 60'000;
  const FlowId id = net.start_flow(spec);
  net.run_until_done(seconds(5));
  const FlowRecord& rec = net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_EQ(rec.receiver.bytes_received, 300'000u);
  EXPECT_GE(rec.sender.timeouts, 1u);
  // Bitmap dedupes the whole-message resends: duplicates recorded, bytes
  // counted once.
  EXPECT_GT(rec.receiver.duplicate_packets, 0u);
}

// Builds a topology for the scheme setup `s`, applies it and starts flows.
using TrackerSetup = std::function<void(Network&, const SchemeSetup&)>;

// The two trackers share one datapath, so swapping them must be invisible
// to the protocol: every flow completes at the same instants with the same
// sender counters, and its receiver delivers the same bytes and sends the
// same ACKs and HO bounces.  (Duplicate and out-of-order counts are each
// tracker's own bookkeeping.)
void expect_tracker_invisible(const char* what, double loss, const TrackerSetup& setup) {
  static_assert(std::has_unique_object_representations_v<SenderStats>);
  auto run = [&](bool bitmap) {
    Simulator sim;
    Logger log{LogLevel::kOff};
    Network net{sim, log};
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    s.sw.inject_loss_rate = loss;
    if (bitmap) s.factory = std::make_shared<DcpBitmapFactory>();
    setup(net, s);
    net.run_until_done(seconds(5));
    return net.records();
  };
  const std::vector<FlowRecord> counter = run(false);
  const std::vector<FlowRecord> bitmap = run(true);
  ASSERT_EQ(counter.size(), bitmap.size()) << what << " at loss " << loss;
  std::size_t differ = 0;
  double worst_fct_ratio = 1.0;
  for (std::size_t i = 0; i < counter.size(); ++i) {
    const FlowRecord& c = counter[i];
    const FlowRecord& b = bitmap[i];
    EXPECT_TRUE(c.complete() && b.complete()) << what << " at loss " << loss << ": flow " << i;
    const bool same = c.tx_done == b.tx_done && c.rx_done == b.rx_done &&
                      std::memcmp(&c.sender, &b.sender, sizeof c.sender) == 0 &&
                      c.receiver.bytes_received == b.receiver.bytes_received &&
                      c.receiver.acks_sent == b.receiver.acks_sent &&
                      c.receiver.ho_received == b.receiver.ho_received;
    if (same) continue;
    ++differ;
    if (c.fct() > 0) {
      worst_fct_ratio = std::max(worst_fct_ratio, static_cast<double>(b.fct()) / c.fct());
    }
  }
  EXPECT_EQ(differ, 0u) << what << " at loss " << loss << ": " << differ << " of "
                        << counter.size() << " flows differ; worst bitmap/counter FCT ratio "
                        << worst_fct_ratio;
}

TEST(DcpBitmapVariant, TrackingIsInvisibleToTheProtocol) {
  auto one_flow = [](std::uint64_t msg_bytes) {
    return [msg_bytes](Network& net, const SchemeSetup& s) {
      Star star = build_star(net, 3, s.sw);
      apply_scheme(net, s);
      FlowSpec spec;
      spec.src = star.hosts[0]->id();
      spec.dst = star.hosts[2]->id();
      spec.bytes = 1'000'000;
      spec.msg_bytes = msg_bytes;
      net.start_flow(spec);
    };
  };
  auto incast = [](Network& net, const SchemeSetup& s) {
    Star star = build_star(net, 4, s.sw);
    apply_scheme(net, s);
    for (std::size_t i = 0; i < 3; ++i) {
      FlowSpec spec;
      spec.src = star.hosts[i]->id();
      spec.dst = star.hosts[3]->id();
      spec.bytes = 400'000;
      spec.msg_bytes = 100'000;
      net.start_flow(spec);
    }
  };
  auto websearch = [](Network& net, const SchemeSetup& s) {
    ClosParams clos;
    clos.spines = 2;
    clos.leaves = 2;
    clos.hosts_per_leaf = 4;
    clos.sw = s.sw;
    ClosTopology topo = build_clos(net, clos);
    apply_scheme(net, s);
    FlowGenParams fg;
    fg.load = 0.4;
    fg.host_rate = clos.link;
    fg.num_flows = 300;
    fg.seed = 7;
    generate_poisson_flows(net, topo.hosts, SizeDist::websearch(), fg);
  };
  for (double loss : {0.0, 0.02}) {
    expect_tracker_invisible("1 MB in 200 KB messages", loss, one_flow(200'000));
    expect_tracker_invisible("1 MB as one message", loss, one_flow(0));
    expect_tracker_invisible("3-to-1 incast", loss, incast);
  }
  for (double loss : {0.0, 0.005}) {
    expect_tracker_invisible("Clos websearch", loss, websearch);
  }
}

// ---------------------------------------------------------------------------
// Checkpoint sections check what they load.  Each tampered image below
// keeps the stream aligned (a scalar overwritten in place, a container's
// size prefix changed together with its elements), so only the section's
// own check can refuse it; without one the image loads with ok() and the
// state is later used as an index.  Offsets count back from the end of the
// section, whose tail fields have fixed sizes, and are cross-checked
// against the live transport before tampering.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kTamperPkts = 200;
constexpr std::uint32_t kTamperMsgs = 10;
// Bytes StateIO::timer writes: kind, heap time, heap sequence, deadline.
constexpr std::size_t kTimerBytes = 1 + sizeof(Time) + sizeof(std::uint64_t) + sizeof(Time);

// One lossy DCP flow of kTamperPkts packets in kTamperMsgs messages.  Its
// transports exist from start_flow on, so an unrun copy is a load target.
struct LossyDcpFlow {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  FlowId id = 0;

  explicit LossyDcpFlow(bool bitmap_receiver) {
    SchemeSetup s = make_scheme(SchemeKind::kDcp);
    s.sw.inject_loss_rate = 0.3;
    if (bitmap_receiver) s.factory = std::make_shared<DcpBitmapFactory>();
    Star star = build_star(net, 3, s.sw);
    apply_scheme(net, s);
    FlowSpec spec;
    spec.src = star.hosts[0]->id();
    spec.dst = star.hosts[2]->id();
    spec.bytes = std::uint64_t{kTamperPkts} * kMtuPayload;
    spec.msg_bytes = spec.bytes / kTamperMsgs;
    id = net.start_flow(spec);
  }
  SenderTransport& sender() { return *net.host(net.record(id).spec.src)->sender(id); }
  ReceiverTransport& receiver() { return *net.host(net.record(id).spec.dst)->receiver(id); }
  // Steps the run until `ready` holds; false if it never does.
  bool run_until(const std::function<bool()>& ready) {
    while (!ready()) {
      if (sim.now() >= milliseconds(5)) return false;
      sim.run(sim.now() + nanoseconds(200));
    }
    return true;
  }
};

template <typename Transport>
std::vector<std::uint8_t> save_section(Transport& t) {
  std::vector<std::uint8_t> img;
  StateIO io = StateIO::saver(img);
  t.checkpoint(io);
  EXPECT_TRUE(io.ok()) << io.error();
  return img;
}

// Loads `img` into the sender (or receiver) of a fresh, unrun copy.
bool loads(const std::vector<std::uint8_t>& img, bool sender, bool bitmap_receiver) {
  LossyDcpFlow twin(bitmap_receiver);
  StateIO io = StateIO::loader(img);
  if (sender) {
    twin.sender().checkpoint(io);
  } else {
    twin.receiver().checkpoint(io);
  }
  return io.ok();
}

template <typename T>
T read_at(const std::vector<std::uint8_t>& img, std::size_t off) {
  T v;
  std::memcpy(&v, img.data() + off, sizeof v);
  return v;
}

template <typename T>
std::vector<std::uint8_t> overwrite(std::vector<std::uint8_t> img, std::size_t off, T v) {
  std::memcpy(img.data() + off, &v, sizeof v);
  return img;
}

// Drops the last element (`elem` bytes) of the container whose u64 size
// prefix sits at `prefix`, and the prefix with it.
std::vector<std::uint8_t> shrink(std::vector<std::uint8_t> img, std::size_t prefix,
                                 std::size_t elem) {
  const auto n = read_at<std::uint64_t>(img, prefix);
  img = overwrite<std::uint64_t>(std::move(img), prefix, n - 1);
  const auto last = static_cast<std::ptrdiff_t>(prefix + 8 + (n - 1) * elem);
  img.erase(img.begin() + last, img.begin() + last + static_cast<std::ptrdiff_t>(elem));
  return img;
}

TEST(DcpSender, RestoreRejectsStateOutsideTheFlow) {
  LossyDcpFlow w(false);
  auto* snd = dynamic_cast<DcpSender*>(&w.sender());
  ASSERT_NE(snd, nullptr);
  // Some messages acked and a bounced HO queued in the RetransQ.
  ASSERT_TRUE(w.run_until([&] { return snd->una_msn() > 0 && snd->retransq().len() > 0; }));
  ASSERT_EQ(snd->stats().timeouts, 0u);  // so no timeout-round PSNs are queued
  const std::vector<std::uint8_t> img = save_section(*snd);
  ASSERT_TRUE(loads(img, true, false));

  // Tail after una_msn_: last_progress_, timeout_backoff_, dstats_ and the
  // fetch and message timers.  Before it: snd_nxt_, then sRetryNo (size
  // prefix, one byte per message), then the empty timeout-round PSN queue.
  const std::size_t una_at =
      img.size() - (sizeof(Time) + sizeof(int) + sizeof(DcpSenderStats) + 2 * kTimerBytes) - 4;
  const std::size_t nxt_at = una_at - 4;
  const std::size_t sretry_at = nxt_at - kTamperMsgs - 8;
  const std::size_t timeout_retx_at = sretry_at - 8;
  // Head: label, SenderStats, started_at_, finished_, next_allowed_ (no CC
  // state without CC), then the RetransQ's host queue of {msn, psn}.
  const std::size_t hostq_at = 4 + sizeof(SenderStats) + sizeof(Time) + 1 + sizeof(Time);
  ASSERT_EQ(read_at<std::uint32_t>(img, una_at), snd->una_msn());
  ASSERT_EQ(read_at<std::uint64_t>(img, sretry_at), kTamperMsgs);
  ASSERT_EQ(read_at<std::uint64_t>(img, timeout_retx_at), 0u);
  ASSERT_EQ(read_at<std::uint64_t>(img, hostq_at), snd->retransq().len());

  EXPECT_FALSE(loads(overwrite(img, nxt_at, kTamperPkts + 1), true, false)) << "snd_nxt";
  EXPECT_FALSE(loads(overwrite(img, una_at, kTamperMsgs + 1), true, false)) << "una_msn";
  EXPECT_FALSE(loads(shrink(img, sretry_at, 1), true, false)) << "sRetryNo size";
  EXPECT_FALSE(loads(overwrite(img, hostq_at + 8 + 4, kTamperPkts), true, false))
      << "RetransQ entry PSN";
  std::vector<std::uint8_t> retx = overwrite<std::uint64_t>(img, timeout_retx_at, 1);
  const std::uint32_t past_end = kTamperPkts;
  const auto* b = reinterpret_cast<const std::uint8_t*>(&past_end);
  retx.insert(retx.begin() + static_cast<std::ptrdiff_t>(timeout_retx_at + 8), b, b + 4);
  EXPECT_FALSE(loads(retx, true, false)) << "timeout-round PSN";
}

TEST(DcpReceiver, RestoreRejectsRingsOrEmsnOutsideTheFlow) {
  LossyDcpFlow w(false);
  auto* rcv = dynamic_cast<DcpReceiver*>(&w.receiver());
  ASSERT_NE(rcv, nullptr);
  ASSERT_TRUE(w.run_until([&] { return rcv->emsn() >= 2; }));
  const std::vector<std::uint8_t> img = save_section(*rcv);
  ASSERT_TRUE(loads(img, false, false));

  // Bytes of one counter-ring slot, from a one-slot tracker's section:
  // size prefix, the slot, eMSN.
  MessageCounterTracker one_slot(MessageLayout(kMtuPayload, 0), 1);
  const std::size_t slot = save_section(one_slot).size() - 8 - 4;
  // Tail: the counter ring (size prefix, one slot per outstanding
  // message), eMSN, the rRetryNo ring (size prefix, one byte per slot).
  const std::size_t rretry_at = img.size() - kDcpOutstandingMsgs - 8;
  const std::size_t emsn_at = rretry_at - 4;
  const std::size_t ring_at = emsn_at - kDcpOutstandingMsgs * slot - 8;
  ASSERT_EQ(read_at<std::uint64_t>(img, rretry_at), kDcpOutstandingMsgs);
  ASSERT_EQ(read_at<std::uint32_t>(img, emsn_at), rcv->emsn());
  ASSERT_EQ(read_at<std::uint64_t>(img, ring_at), kDcpOutstandingMsgs);

  EXPECT_FALSE(loads(shrink(img, rretry_at, 1), false, false)) << "rRetryNo ring";
  EXPECT_FALSE(loads(shrink(img, ring_at, slot), false, false)) << "counter ring";
  EXPECT_FALSE(loads(overwrite(img, emsn_at, kTamperMsgs + 1), false, false)) << "eMSN";
}

TEST(DcpBitmapReceiver, RestoreRejectsBitmapEmsnOrCursorOutsideTheFlow) {
  LossyDcpFlow w(true);
  auto* rcv = dynamic_cast<DcpBitmapReceiver*>(&w.receiver());
  ASSERT_NE(rcv, nullptr);
  ASSERT_TRUE(w.run_until([&] { return rcv->emsn() >= 2; }));
  const std::vector<std::uint8_t> img = save_section(*rcv);
  ASSERT_TRUE(loads(img, false, true));

  // Tail: the bitmap (size prefix, one byte per packet), eMSN, scan cursor.
  const std::size_t scan_at = img.size() - 4;
  const std::size_t emsn_at = scan_at - 4;
  const std::size_t bitmap_at = emsn_at - kTamperPkts - 8;
  ASSERT_EQ(read_at<std::uint32_t>(img, emsn_at), rcv->emsn());
  ASSERT_EQ(read_at<std::uint64_t>(img, bitmap_at), kTamperPkts);

  EXPECT_FALSE(loads(overwrite(img, scan_at, kTamperPkts + 1), false, true)) << "scan cursor";
  EXPECT_FALSE(loads(overwrite(img, emsn_at, kTamperMsgs + 1), false, true)) << "eMSN";
  EXPECT_FALSE(loads(shrink(img, bitmap_at, 1), false, true)) << "bitmap size";
}

}  // namespace
}  // namespace dcp
