// Key-value RPC example: three clients issue GET requests (small Sends) to
// one server that answers with values (larger Sends back), the classic
// RDMA-RPC pattern.  Demonstrates two-sided verbs — Receive WQEs, the
// Shared Receive Queue, SSN-ordered matching — and measures RPC latency
// over the DCP fabric, with and without background congestion.
//
// Build & run:  ./example_kv_rpc

#include <cstdio>
#include <vector>

#include "core/verbs.h"
#include "harness/world.h"
#include "stats/percentile.h"

using namespace dcp;

namespace {

struct Rpc {
  verbs::QueuePair* to_server;    // client -> server requests
  verbs::QueuePair* to_client;    // server -> client responses
  Time issued_at = 0;
  PercentileEstimator latency_us;
  std::uint64_t next_req = 1;
};

}  // namespace

int main() {
  WorldSpec spec;  // DCP
  spec.topo = TopoKind::kStar;
  spec.star_hosts = 5;  // hosts 0-2 clients, 3 server, 4 noise
  SimWorld w(spec);
  Network& net = w.net();
  Simulator& sim = net.sim();
  const auto& hosts = net.hosts();
  verbs::Device dev(net);

  constexpr int kClients = 3;
  constexpr std::uint64_t kReqBytes = 256;        // GET request
  constexpr std::uint64_t kValBytes = 32 * 1024;  // value payload
  constexpr int kRpcsPerClient = 40;

  // The server consumes all requests through one Shared Receive Queue.
  verbs::SharedReceiveQueue server_srq;
  for (int i = 0; i < kClients * kRpcsPerClient + 8; ++i) {
    server_srq.post_recv(1000 + static_cast<std::uint64_t>(i));
  }

  std::vector<Rpc> rpcs(kClients);
  for (int c = 0; c < kClients; ++c) {
    rpcs[static_cast<std::size_t>(c)].to_server =
        &dev.create_qp(hosts[static_cast<std::size_t>(c)]->id(), hosts[3]->id(), 64 * 1024);
    rpcs[static_cast<std::size_t>(c)].to_server->bind_srq(&server_srq);
    rpcs[static_cast<std::size_t>(c)].to_client =
        &dev.create_qp(hosts[3]->id(), hosts[static_cast<std::size_t>(c)]->id(), 64 * 1024);
  }

  // Event-driven RPC loop: poll CQs every microsecond of simulated time.
  int outstanding = 0;
  std::vector<int> remaining(kClients, kRpcsPerClient);

  auto issue = [&](int c) {
    Rpc& r = rpcs[static_cast<std::size_t>(c)];
    r.issued_at = sim.now();
    r.to_client->post_recv(static_cast<std::uint64_t>(c));  // for the response
    r.to_server->post(kReqBytes, r.next_req++, RdmaOp::kSend);
    ++outstanding;
  };

  for (int c = 0; c < kClients; ++c) issue(c);

  std::function<void()> pump = [&] {
    // Server: answer every completed request.
    verbs::WorkCompletion wc;
    for (int c = 0; c < kClients; ++c) {
      Rpc& r = rpcs[static_cast<std::size_t>(c)];
      while (r.to_server->poll_recv_cq(wc)) {
        r.to_client->post(kValBytes, wc.wr_id, RdmaOp::kSend);  // the "value"
      }
      // Client: response arrived -> record latency, maybe issue next.
      while (r.to_client->poll_recv_cq(wc)) {
        r.latency_us.add(to_us(sim.now() - r.issued_at));
        --outstanding;
        if (--remaining[static_cast<std::size_t>(c)] > 0) issue(c);
      }
      while (r.to_server->poll_cq(wc)) {
      }
      while (r.to_client->poll_cq(wc)) {
      }
    }
    bool more = outstanding > 0;
    for (int rem : remaining) more = more || rem > 0;
    if (more) sim.schedule(microseconds(1), pump);
  };
  sim.schedule(microseconds(1), pump);

  // Background elephant to perturb the fabric halfway through.  It is
  // posted here, not as a spec flow, which SimWorld would create before
  // the QPs' flows.
  FlowSpec noise;
  noise.src = hosts[4]->id();
  noise.dst = hosts[3]->id();
  noise.bytes = 8ull * 1024 * 1024;
  noise.start_time = microseconds(300);
  net.start_flow(noise);

  sim.run(seconds(2));

  std::printf("KV RPC over DCP: %d clients x %d GETs (%llu B req / %llu B value)\n\n", kClients,
              kRpcsPerClient, static_cast<unsigned long long>(kReqBytes),
              static_cast<unsigned long long>(kValBytes));
  std::printf("%8s %10s %10s %10s %8s\n", "client", "P50 (us)", "P95 (us)", "max (us)", "RPCs");
  for (int c = 0; c < kClients; ++c) {
    Rpc& r = rpcs[static_cast<std::size_t>(c)];
    std::printf("%8d %10.2f %10.2f %10.2f %8zu\n", c, r.latency_us.percentile(50),
                r.latency_us.percentile(95), r.latency_us.percentile(100),
                r.latency_us.count());
  }
  std::printf("\nThe 8 MB elephant at t=300us shares the server link; DCP keeps the\n"
              "small RPCs' tail bounded (no RTOs, loss recovered via the control\n"
              "plane if the queue ever trims).\n");
  return 0;
}
