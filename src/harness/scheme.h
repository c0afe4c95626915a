#pragma once
// Scheme registry: maps each evaluated transport scheme to its transport
// factory, switch configuration (PFC / trimming / ECN / load balancing)
// and end-host congestion-control configuration, exactly as §6 deploys
// them:
//
//   PFC      : RNIC-GBN  + PFC switches            + ECMP
//   IRN      : IRN       + lossy switches          + AR (default) or ECMP
//   MP-RDMA  : MP-RDMA   + PFC switches + ECN      + source-routed paths
//   DCP      : DCP-RNIC  + trimming switches       + AR
//   CX5      : RNIC-GBN  + lossy switches          + ECMP (testbed baseline)
//   Timeout  : timeout-only + lossy                + ECMP
//   RACK-TLP : RACK-TLP  + lossy                   + ECMP
//   TCP      : TcpLite   + lossy                   + ECMP
//   FEC      : erasure-coded streaming + lossy     + ECMP (WAN tier)

#include <memory>
#include <optional>
#include <string>

#include "host/transport.h"
#include "switch/switch.h"
#include "topo/network.h"

namespace dcp {

enum class SchemeKind {
  kPfc,
  kIrn,
  kIrnEcmp,
  kMpRdma,
  kDcp,
  kCx5,
  kTimeout,
  kRackTlp,
  kTcp,
  kFec,
};

const char* scheme_name(SchemeKind k);
/// Inverse of scheme_name(), case-insensitive, also accepting the config
/// aliases `mprdma`, `gbn` (CX5's RNIC-GBN) and `racktlp`; nullopt for
/// unknown names.
std::optional<SchemeKind> scheme_from_name(const std::string& name);

struct SchemeOptions {
  bool with_cc = false;               // integrate congestion control (§6.3)
  // Which CC to integrate when with_cc: DCQCN (the paper's choice) or
  // TIMELY (delay-based; exercises DCP's any-CC compatibility claim).
  CcConfig::Type cc_type = CcConfig::Type::kDcqcn;
  Bandwidth line_rate = Bandwidth::gbps(100);
  Time base_rtt = microseconds(8);    // for BDP window sizing
  std::uint64_t buffer_bytes = 32ull * 1024 * 1024;
  // Egress data-queue depth: a trimming switch trims above it, a lossy one
  // tail-drops (PFC switches pause instead).  DCP+DCQCN marks ECN at 1/5
  // and 4/5 of it.
  std::uint64_t data_queue_bytes = 1024 * 1024;
  double control_weight = 4.0;         // WRR control:data weight (§4.2)
  std::optional<LbPolicy> lb;          // unset: the scheme's own policy
  std::uint32_t retrans_batch = 16;    // RetransQ entries per PCIe fetch (§4.3)
  Time pcie_rtt = microseconds(1);     // host-memory round trip of one fetch
  Time rto_high = microseconds(320);
  Time rto_low = microseconds(100);
  Time dcp_msg_timeout = milliseconds(1);  // scale with RTT in cross-DC runs
  // FEC geometry and stream window (transports/fec.h).  A zero stream
  // window defaults to 2 BDP so the sender keeps the long pipe full while
  // group ACKs are still in flight; a zero NACK delay defaults to
  // max(rto_low, base_rtt / 2) — long enough to ride out reordering,
  // short enough to beat the RTO backstop.
  std::uint32_t fec_k = 8;
  std::uint32_t fec_m = 2;
  std::uint64_t fec_stream_window_bytes = 0;
  Time fec_nack_delay = 0;
};

struct SchemeSetup {
  SchemeKind kind;
  std::shared_ptr<TransportFactory> factory;
  SwitchConfig sw;       // apply to every switch in the topology
  TransportConfig tcfg;  // apply via Network::set_transport_config
};

std::uint64_t bdp_bytes(Bandwidth rate, Time rtt);

SchemeSetup make_scheme(SchemeKind kind, const SchemeOptions& opt = {});

/// Installs the scheme's factory + transport config into the network (the
/// switch config must be passed to the topology builder beforehand).
void apply_scheme(Network& net, const SchemeSetup& s);

}  // namespace dcp
