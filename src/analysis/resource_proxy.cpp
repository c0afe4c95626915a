#include "analysis/resource_proxy.h"

#include "core/dcp_transport.h"
#include "core/tracking.h"
#include "transports/gbn.h"
#include "transports/irn.h"
#include "transports/racktlp.h"

namespace dcp {

std::vector<ResourceRow> resource_proxy_rows(std::uint32_t bdp_pkts) {
  std::vector<ResourceRow> rows;

  // RNIC-GBN: fixed-size QP context, no tracking structures.
  rows.push_back(ResourceRow{"RNIC-GBN", sizeof(GbnSender), sizeof(GbnReceiver), 0, 1.0});

  // IRN: sender + receiver bitmaps at BDP size (bits -> bytes), plus the
  // loss-recovery episode state.
  rows.push_back(ResourceRow{"IRN (RNIC-SR)", sizeof(IrnSender), sizeof(IrnReceiver),
                             static_cast<std::uint64_t>(bdp_pkts) / 8 * 3 /* 3 bitmaps */, 2.0});

  // RACK-TLP: 8-byte transmission timestamp per in-flight packet.
  rows.push_back(ResourceRow{"RACK-TLP", sizeof(RackTlpSender), sizeof(OooReceiver),
                             static_cast<std::uint64_t>(bdp_pkts) * 8, 3.0});

  // DCP: message counters only; the RetransQ lives in *host* memory.
  MessageCounterTracker t(MessageLayout(8 * kMtuPayload, kMtuPayload), 8);
  rows.push_back(
      ResourceRow{"DCP-RNIC", sizeof(DcpSender), sizeof(DcpReceiver), t.memory_bytes() + 16, 1.0});

  return rows;
}

}  // namespace dcp
