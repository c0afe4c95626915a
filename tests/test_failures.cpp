// Failure-injection tests: link cuts lose in-flight packets and remove
// paths; transports must still deliver every byte (DCP via its coarse
// timeout fallback — the §4.5 "lossless control plane violated" case).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/observer.h"
#include "harness/scheme.h"
#include "topo/clos.h"
#include "topo/dumbbell.h"
#include "topo/testbed.h"

namespace dcp {
namespace {

struct FailFixture {
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
};

TEST(Channel, DownChannelDiscards) {
  FailFixture f;
  BackToBack t = [&] {
    Network& net = f.net;
    BackToBack bb;
    bb.a = net.add_host("a", Bandwidth::gbps(100), microseconds(1));
    bb.b = net.add_host("b", Bandwidth::gbps(100), microseconds(1));
    net.direct_link(bb.a, bb.b);
    return bb;
  }();
  t.a->nic().channel().set_up(false);
  Packet p;
  p.wire_bytes = 100;
  t.a->nic().channel().deliver(p, 0);
  f.sim.run();
  EXPECT_EQ(t.a->nic().channel().delivered_packets(), 0u);
  EXPECT_EQ(t.a->nic().channel().discarded_packets(), 1u);
}

TEST(Channel, CutInFlightPolicy) {
  // Default cut semantics: set_up(false) discards only traffic handed to
  // the wire *after* the cut; packets already propagating still arrive.
  // The MidFlightLinkCut tests below rely on this — their in-flight losses
  // happen at the dead switch's egress, not mid-wire.
  FailFixture f;
  BackToBack t = [&] {
    Network& net = f.net;
    BackToBack bb;
    bb.a = net.add_host("a", Bandwidth::gbps(100), microseconds(1));
    bb.b = net.add_host("b", Bandwidth::gbps(100), microseconds(1));
    net.direct_link(bb.a, bb.b);
    return bb;
  }();
  Channel& ch = t.a->nic().channel();
  Packet p;
  p.wire_bytes = 100;

  ch.deliver(p, 0);   // on the wire...
  ch.set_up(false);   // ...then the fiber is cut
  f.sim.run();
  EXPECT_EQ(ch.delivered_packets(), 1u);
  EXPECT_EQ(ch.in_flight_dropped(), 0u);  // the photons are past the cut

  // Opt-in drop-in-flight (what FaultInjector's link_flap uses with
  // drop_inflight=true): the same sequence kills the wire-borne packet.
  ch.set_up(true);
  ch.set_drop_in_flight_on_cut(true);
  ch.deliver(p, 0);
  ch.set_up(false);
  f.sim.run();
  EXPECT_EQ(ch.in_flight_dropped(), 1u);
}

TEST(SwitchFailure, DownPortExcludedFromCandidates) {
  FailFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  TestbedParams tb;
  tb.sw = s.sw;
  tb.cross_links = std::vector<Bandwidth>(4, Bandwidth::gbps(100));
  TestbedTopology topo = build_testbed(f.net, tb);
  apply_scheme(f.net, s);

  // Kill cross links 0 and 1 on switch 1 (ports 8, 9).
  topo.sw1->set_link_up(8, false);
  topo.sw1->set_link_up(9, false);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[8]->id();
  spec.bytes = 2'000'000;
  const FlowId id = f.net.start_flow(spec);
  f.net.run_until_done(seconds(2));
  ASSERT_TRUE(f.net.record(id).complete());
  EXPECT_EQ(topo.sw1->port(8).stats().tx_packets, 0u);
  EXPECT_EQ(topo.sw1->port(9).stats().tx_packets, 0u);
  EXPECT_GT(topo.sw1->port(10).stats().tx_packets + topo.sw1->port(11).stats().tx_packets, 0u);
}

class MidFlightLinkCut : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(MidFlightLinkCut, FlowsSurviveASpineFailure) {
  FailFixture f;
  SchemeSetup s = make_scheme(GetParam());
  ClosParams cp;
  cp.spines = 2;
  cp.leaves = 2;
  cp.hosts_per_leaf = 2;
  cp.sw = s.sw;
  ClosTopology topo = build_clos(f.net, cp);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[3]->id();  // cross-rack
  spec.bytes = 4'000'000;
  spec.msg_bytes = 512 * 1024;
  const FlowId id = f.net.start_flow(spec);

  // Cut every link touching spine 0 mid-transfer: packets in flight are
  // lost, and the withdrawn routes force everything over spine 1.
  f.sim.schedule(microseconds(60), [&] {
    for (std::uint32_t p = 0; p < topo.spines[0]->num_ports(); ++p) {
      topo.spines[0]->set_link_up(p, false);
    }
    for (auto* leaf : topo.leaves) {
      // The leaf uplinks to spine 0 are the first spine port on each leaf
      // (ports are allocated hosts-first, then one uplink per spine).
      leaf->set_link_up(cp.hosts_per_leaf, false);
    }
  });

  f.net.run_until_done(seconds(5));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete()) << scheme_name(GetParam());
  EXPECT_EQ(rec.receiver.bytes_received, 4'000'000u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MidFlightLinkCut,
                         ::testing::Values(SchemeKind::kDcp, SchemeKind::kIrn,
                                           SchemeKind::kCx5, SchemeKind::kTimeout),
                         [](const auto& info) {
                           std::string n = scheme_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(MidFlightLinkCutDcp, CoarseTimeoutCoversLostInFlight) {
  // Same cut, but assert the recovery mechanism: the in-flight packets on
  // the dead spine die silently (no HO is generated for them), so DCP must
  // use its coarse-grained timeout fallback at least once.
  FailFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  ClosParams cp;
  cp.spines = 2;
  cp.leaves = 2;
  cp.hosts_per_leaf = 2;
  cp.sw = s.sw;
  ClosTopology topo = build_clos(f.net, cp);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[3]->id();
  spec.bytes = 8'000'000;
  spec.msg_bytes = 1024 * 1024;
  const FlowId id = f.net.start_flow(spec);

  f.sim.schedule(microseconds(100), [&] {
    for (auto* leaf : topo.leaves) leaf->set_link_up(cp.hosts_per_leaf, false);
    for (std::uint32_t p = 0; p < topo.spines[0]->num_ports(); ++p) {
      topo.spines[0]->set_link_up(p, false);
    }
  });
  f.net.run_until_done(seconds(5));
  const FlowRecord& rec = f.net.record(id);
  ASSERT_TRUE(rec.complete());
  EXPECT_GE(rec.sender.timeouts, 1u);  // fallback actually exercised
  EXPECT_EQ(rec.receiver.bytes_received, 8'000'000u);
}

TEST(SwitchFailure, LinkRestoreRejoinsCandidates) {
  FailFixture f;
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  TestbedParams tb;
  tb.sw = s.sw;
  tb.cross_links = std::vector<Bandwidth>(2, Bandwidth::gbps(100));
  TestbedTopology topo = build_testbed(f.net, tb);
  apply_scheme(f.net, s);

  topo.sw1->set_link_up(8, false);
  EXPECT_FALSE(topo.sw1->link_up(8));
  topo.sw1->set_link_up(8, true);
  EXPECT_TRUE(topo.sw1->link_up(8));

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[8]->id();
  spec.bytes = 4'000'000;
  const FlowId id = f.net.start_flow(spec);
  f.net.run_until_done(seconds(2));
  ASSERT_TRUE(f.net.record(id).complete());
  // Both cross links carry traffic again.
  EXPECT_GT(topo.sw1->port(8).stats().tx_packets, 0u);
}

/// What sw1 did while an IRN-over-ECMP flow's cross link flapped.
struct EcmpFlapRun {
  std::uint64_t bytes_received = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t events = 0;
  Time tx_done = 0;
  std::uint32_t flapped = UINT32_MAX;  // sw1 port, UINT32_MAX if none
  // The flapped port's enqueue and wire hand-off counts at the flap's
  // down and up edges, and at the end of the run.
  std::uint64_t enq_down = 0, enq_up = 0, enq_end = 0;
  std::uint64_t wire_down = 0, wire_up = 0;
  std::vector<std::uint64_t> port_tx;

  bool operator==(const EcmpFlapRun&) const = default;
};

EcmpFlapRun ecmp_flap_run() {
  FailFixture f;
  // IRN over ECMP: one flow, one hashed cross link out of four.
  SchemeSetup s = make_scheme(SchemeKind::kIrnEcmp);
  TestbedParams tb;
  tb.sw = s.sw;
  tb.cross_links = std::vector<Bandwidth>(4, Bandwidth::gbps(100));
  TestbedTopology topo = build_testbed(f.net, tb);
  apply_scheme(f.net, s);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[8]->id();
  spec.bytes = 4'000'000;
  spec.msg_bytes = 512 * 1024;
  const FlowId id = f.net.start_flow(spec);

  // Withdraw whichever cross link ECMP picked (both directions), then
  // restore it while the flow is still sending.
  EcmpFlapRun r;
  f.sim.schedule(microseconds(50), [&] {
    for (std::uint32_t p = 8; p < 12; ++p) {
      if (topo.sw1->port(p).stats().tx_packets > 0) {
        r.flapped = p;
        r.enq_down = topo.sw1->port(p).stats().enqueued_packets;
        r.wire_down = topo.sw1->port(p).channel().delivered_packets();
        topo.sw1->set_link_up(p, false);
        topo.sw2->set_link_up(p, false);
        return;
      }
    }
  });
  f.sim.schedule(microseconds(150), [&] {
    if (r.flapped == UINT32_MAX) return;
    r.enq_up = topo.sw1->port(r.flapped).stats().enqueued_packets;
    r.wire_up = topo.sw1->port(r.flapped).channel().delivered_packets();
    topo.sw1->set_link_up(r.flapped, true);
    topo.sw2->set_link_up(r.flapped, true);
  });

  f.net.run_until_done(seconds(2));
  const FlowRecord& rec = f.net.record(id);
  r.bytes_received = rec.receiver.bytes_received;
  r.retransmitted = rec.sender.retransmitted_packets;
  r.events = f.sim.events_processed();
  r.tx_done = rec.tx_done;
  if (r.flapped != UINT32_MAX) r.enq_end = topo.sw1->port(r.flapped).stats().enqueued_packets;
  for (std::uint32_t p = 0; p < topo.sw1->num_ports(); ++p) {
    r.port_tx.push_back(topo.sw1->port(p).stats().tx_packets);
  }
  return r;
}

TEST(SwitchFailure, EcmpFlapMidFlowReroutesAndRejoins) {
  const EcmpFlapRun r = ecmp_flap_run();
  ASSERT_NE(r.flapped, UINT32_MAX) << "the flow never reached a cross link";
  // While down, the withdrawn port is never picked and hands nothing to
  // the wire.
  EXPECT_EQ(r.enq_up, r.enq_down);
  EXPECT_EQ(r.wire_up, r.wire_down);
  // Meanwhile the flow rode another cross link.
  std::uint64_t rerouted = 0;
  for (std::uint32_t p = 8; p < 12; ++p) {
    if (p != r.flapped) rerouted += r.port_tx[p];
  }
  EXPECT_GT(rerouted, 0u);
  // Restored, it rejoins the candidate set and the flow's hash lands on it
  // again.
  EXPECT_GT(r.enq_end, r.enq_up);
  EXPECT_EQ(r.bytes_received, 4'000'000u);
  EXPECT_EQ(ecmp_flap_run(), r);  // and the whole episode is deterministic
}

/// Records every drop a CheckObserver sees.
struct DropLog final : CheckObserver {
  std::vector<std::pair<DropSite, NodeId>> drops;
  void on_drop(DropSite site, NodeId node, const Packet&) override {
    drops.emplace_back(site, node);
  }
};

TEST(SwitchFailure, AllCandidatesDownDropsAsNoRoute) {
  FailFixture f;
  DropLog log;
  f.sim.set_check_observer(&log);
  SchemeSetup s = make_scheme(SchemeKind::kIrnEcmp);
  TestbedParams tb;
  tb.sw = s.sw;
  tb.cross_links = std::vector<Bandwidth>(2, Bandwidth::gbps(100));
  TestbedTopology topo = build_testbed(f.net, tb);
  apply_scheme(f.net, s);

  // Both cross links (ports 8, 9) withdrawn: sw1 has no candidate left
  // toward sw2's hosts.
  topo.sw1->set_link_up(8, false);
  topo.sw1->set_link_up(9, false);

  FlowSpec spec;
  spec.src = topo.hosts[0]->id();
  spec.dst = topo.hosts[8]->id();
  spec.bytes = 100'000;
  const FlowId id = f.net.start_flow(spec);
  f.sim.run(microseconds(100));

  const std::uint64_t no_route = topo.sw1->stats().no_route;
  EXPECT_GT(no_route, 0u);
  EXPECT_EQ(topo.sw1->port(8).stats().enqueued_packets, 0u);
  EXPECT_EQ(topo.sw1->port(9).stats().enqueued_packets, 0u);
  EXPECT_EQ(f.net.record(id).receiver.bytes_received, 0u);
  ASSERT_EQ(log.drops.size(), no_route);
  for (const auto& [site, node] : log.drops) {
    EXPECT_EQ(site, DropSite::kSwitchNoRoute);
    EXPECT_EQ(node, topo.sw1->id());
  }
  f.sim.set_check_observer(nullptr);
}

}  // namespace
}  // namespace dcp
