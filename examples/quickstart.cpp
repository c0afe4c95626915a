// Quickstart: bring up a small DCP fabric and move data with the
// ibverbs-flavoured API.
//
//   1. describe the world: 4 hosts on one switch, under the DCP scheme;
//   2. build it — SimWorld wires the topology, the switches' DCP-Switch
//      config (trimming + WRR control queue) and the DCP transport;
//   3. open queue pairs and post RDMA Writes;
//   4. poll completions and inspect what the fabric did.
//
// Build & run:  ./example_quickstart

#include <cstdio>

#include "core/verbs.h"
#include "harness/world.h"

int main() {
  using namespace dcp;

  // --- 1. The world ---------------------------------------------------------
  // The scheme (DCP by default) picks the switch config (trimming enabled,
  // control queue weighted per §4.2) and the matching transport.
  WorldSpec spec;
  spec.topo = TopoKind::kStar;
  spec.star_hosts = 4;
  spec.max_time = seconds(1);

  // --- 2. Build it ----------------------------------------------------------
  SimWorld w(spec);
  const auto& hosts = w.net().hosts();

  // --- 3. Queue pairs -------------------------------------------------------
  verbs::Device dev(w.net());
  verbs::QueuePair& qp = dev.create_qp(hosts[0]->id(), hosts[1]->id(),
                                       /*msg_bytes=*/1024 * 1024);

  std::printf("posting 4 RDMA Writes (1 MB each) h0 -> h1...\n");
  for (std::uint64_t wr = 1; wr <= 4; ++wr) {
    qp.post(1024 * 1024, /*wr_id=*/wr, RdmaOp::kWrite);
  }

  // A second QP sending in parallel, to show the NIC multiplexing QPs.
  verbs::QueuePair& qp2 = dev.create_qp(hosts[2]->id(), hosts[1]->id());
  qp2.post(512 * 1024, /*wr_id=*/99, RdmaOp::kSend);

  // --- 4. Run and poll ------------------------------------------------------
  w.run_until_done();

  verbs::WorkCompletion wc;
  while (qp.poll_cq(wc)) {
    std::printf("  CQE: wr_id=%llu  %llu bytes  completed at %.2f us\n",
                static_cast<unsigned long long>(wc.wr_id),
                static_cast<unsigned long long>(wc.bytes), to_us(wc.completed_at));
  }
  while (qp2.poll_cq(wc)) {
    std::printf("  CQE (qp2, Send op): wr_id=%llu  %llu bytes  at %.2f us\n",
                static_cast<unsigned long long>(wc.wr_id),
                static_cast<unsigned long long>(wc.bytes), to_us(wc.completed_at));
  }

  const auto sw = w.net().total_switch_stats();
  std::printf("\nfabric: forwarded=%llu packets, trimmed=%llu, HO lost=%llu\n",
              static_cast<unsigned long long>(sw.forwarded),
              static_cast<unsigned long long>(sw.trimmed),
              static_cast<unsigned long long>(sw.dropped_ho));
  std::printf("simulated time: %.2f us, events: %llu\n", to_us(w.net().sim().now()),
              static_cast<unsigned long long>(w.events_processed()));
  return 0;
}
