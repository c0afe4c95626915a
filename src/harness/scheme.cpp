#include "harness/scheme.h"

#include <algorithm>
#include <cctype>

#include "core/dcp_transport.h"
#include "transports/fec.h"
#include "transports/gbn.h"
#include "transports/irn.h"
#include "transports/mprdma.h"
#include "transports/racktlp.h"
#include "transports/tcp_lite.h"
#include "transports/timeout.h"

namespace dcp {

const char* scheme_name(SchemeKind k) {
  switch (k) {
    case SchemeKind::kPfc: return "PFC";
    case SchemeKind::kIrn: return "IRN";
    case SchemeKind::kIrnEcmp: return "IRN-ECMP";
    case SchemeKind::kMpRdma: return "MP-RDMA";
    case SchemeKind::kDcp: return "DCP";
    case SchemeKind::kCx5: return "CX5";
    case SchemeKind::kTimeout: return "Timeout";
    case SchemeKind::kRackTlp: return "RACK-TLP";
    case SchemeKind::kTcp: return "TCP";
    case SchemeKind::kFec: return "FEC";
  }
  return "?";
}

std::optional<SchemeKind> scheme_from_name(const std::string& name) {
  const auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
  };
  const std::string low = lower(name);
  if (low == "mprdma") return SchemeKind::kMpRdma;
  if (low == "gbn") return SchemeKind::kCx5;
  if (low == "racktlp") return SchemeKind::kRackTlp;
  static constexpr SchemeKind kAll[] = {
      SchemeKind::kPfc,     SchemeKind::kIrn,     SchemeKind::kIrnEcmp, SchemeKind::kMpRdma,
      SchemeKind::kDcp,     SchemeKind::kCx5,     SchemeKind::kTimeout, SchemeKind::kRackTlp,
      SchemeKind::kTcp,     SchemeKind::kFec};
  for (SchemeKind k : kAll) {
    if (lower(scheme_name(k)) == low) return k;
  }
  return std::nullopt;
}

std::uint64_t bdp_bytes(Bandwidth rate, Time rtt) {
  return static_cast<std::uint64_t>(static_cast<double>(rtt) /
                                    static_cast<double>(rate.ps_per_byte));
}

SchemeSetup make_scheme(SchemeKind kind, const SchemeOptions& opt) {
  SchemeSetup s;
  s.kind = kind;

  const std::uint64_t bdp = bdp_bytes(opt.line_rate, opt.base_rtt);

  // Transport defaults common to all schemes.
  s.tcfg.rto_high = opt.rto_high;
  s.tcfg.rto_low = opt.rto_low;
  s.tcfg.dcp_msg_timeout = opt.dcp_msg_timeout;
  s.tcfg.cc.line_rate = opt.line_rate;
  s.tcfg.cc.window_bytes = bdp;

  // Switch defaults.
  s.sw.buffer_bytes = opt.buffer_bytes;

  auto enable_dcqcn = [&](std::uint64_t window) {
    s.tcfg.cc.type = opt.cc_type;
    s.tcfg.cc.window_bytes = window;
    // DCQCN is ECN-driven; TIMELY is delay-based and needs no marking.
    s.sw.ecn = opt.cc_type == CcConfig::Type::kDcqcn;
  };

  switch (kind) {
    case SchemeKind::kPfc:
      s.factory = std::make_shared<GbnFactory>();
      s.sw.pfc.enabled = true;  // thresholds derived by the topology builder
      s.sw.lb = LbPolicy::kEcmp;
      if (opt.with_cc) enable_dcqcn(bdp);
      break;

    case SchemeKind::kIrn:
    case SchemeKind::kIrnEcmp:
      s.factory = std::make_shared<IrnFactory>();
      s.sw.lb = kind == SchemeKind::kIrn ? LbPolicy::kAdaptive : LbPolicy::kEcmp;
      if (opt.with_cc) enable_dcqcn(bdp);
      break;

    case SchemeKind::kMpRdma:
      s.factory = std::make_shared<MpRdmaFactory>();
      s.sw.pfc.enabled = true;   // MP-RDMA requires a lossless fabric
      s.sw.ecn = true;           // its window rule is ECN-driven
      s.sw.lb = LbPolicy::kSourcePath;
      break;

    case SchemeKind::kDcp:
      s.factory = std::make_shared<DcpFactory>();
      s.sw.trimming = true;
      s.sw.lb = LbPolicy::kAdaptive;
      // DCP's Tx path is gated by the CC module's available window (awin,
      // §4.3), realized as packet-conservation credit: BDP-scaled without
      // DCQCN (like IRN's BDP flow control), plus the DCQCN rate machine
      // when CC is integrated.
      if (opt.with_cc) {
        enable_dcqcn(bdp);
        // ECN must engage *below* the trim threshold or DCQCN never sees
        // marks (the data queue cannot exceed the threshold).
        s.sw.ecn_kmin_bytes = s.sw.trim_threshold_bytes / 5;
        s.sw.ecn_kmax_bytes = s.sw.trim_threshold_bytes * 4 / 5;
      } else {
        s.tcfg.cc.window_bytes = bdp;
      }
      break;

    case SchemeKind::kCx5:
      s.factory = std::make_shared<GbnFactory>();
      s.sw.lb = LbPolicy::kEcmp;
      if (opt.with_cc) enable_dcqcn(bdp);
      break;

    case SchemeKind::kTimeout:
      s.factory = std::make_shared<TimeoutFactory>();
      s.sw.lb = LbPolicy::kEcmp;
      if (opt.with_cc) enable_dcqcn(bdp);
      break;

    case SchemeKind::kRackTlp:
      s.factory = std::make_shared<RackTlpFactory>();
      s.sw.lb = LbPolicy::kEcmp;
      if (opt.with_cc) enable_dcqcn(bdp);
      break;

    case SchemeKind::kTcp:
      s.factory = std::make_shared<TcpLiteFactory>();
      s.sw.lb = LbPolicy::kEcmp;
      break;

    case SchemeKind::kFec:
      s.factory = std::make_shared<FecFactory>();
      s.sw.lb = LbPolicy::kEcmp;  // lossy fabric, no PFC/trim on a WAN
      s.tcfg.fec_k = opt.fec_k;
      s.tcfg.fec_m = opt.fec_m;
      // Fire-and-forget needs pipe + slack: with the window at exactly one
      // BDP the stream stalls while group ACKs cross the long haul.
      s.tcfg.fec_stream_window_bytes =
          opt.fec_stream_window_bytes > 0 ? opt.fec_stream_window_bytes : 2 * bdp;
      s.tcfg.fec_nack_delay =
          opt.fec_nack_delay > 0 ? opt.fec_nack_delay : std::max(opt.rto_low, opt.base_rtt / 2);
      if (opt.with_cc) enable_dcqcn(2 * bdp);
      break;
  }
  return s;
}

void apply_scheme(Network& net, const SchemeSetup& s) {
  net.set_factory(s.factory);
  net.set_transport_config(s.tcfg);
}

}  // namespace dcp
