#include "analysis/memory_model.h"

#include "core/dcp_transport.h"
#include "core/tracking.h"

namespace dcp {

std::uint32_t bdp_packets() {
  const double bdp_bytes = kTable3Gbps * 1e9 / 8.0 * kTable3RttUs * 1e-6;
  return static_cast<std::uint32_t>(bdp_bytes / kMtuPayload);
}

TrackingMemoryRow bdp_bitmap_row() {
  const std::uint32_t pkts = bdp_packets();
  BdpBitmapTracker t(pkts);
  const std::uint64_t per_qp = t.memory_bytes() * kTable3BitmapsPerQp;
  return {"BDP-sized", per_qp, per_qp, per_qp * kTable3Qps, per_qp * kTable3Qps};
}

TrackingMemoryRow linked_chunk_row() {
  const std::uint32_t pkts = bdp_packets();
  // Min: the single pre-allocated chunk per QP (low OOO) times the same
  // bitmap replication factor; max: chunks for the whole BDP.
  LinkedChunkTracker min_t(pkts);
  LinkedChunkTracker max_t(pkts);
  max_t.on_packet(pkts - 1);  // force the full chain
  const std::uint64_t per_min = min_t.memory_bytes() * kTable3BitmapsPerQp;
  const std::uint64_t per_max = max_t.memory_bytes() * kTable3BitmapsPerQp;
  return {"Linked chunk", per_min, per_max, per_min * kTable3Qps, per_max * kTable3Qps};
}

TrackingMemoryRow dcp_row() {
  // One single-packet message per tracked slot.
  const MessageLayout layout(std::uint64_t{kDcpOutstandingMsgs} * kMtuPayload, kMtuPayload);
  MessageCounterTracker t(layout, kDcpOutstandingMsgs);
  // Counters + eMSN/rRetryNo QPC fields (~16 B of per-QP context).
  const std::uint64_t per_qp = t.memory_bytes() + 16;
  return {"DCP", per_qp, per_qp, per_qp * kTable3Qps, per_qp * kTable3Qps};
}

}  // namespace dcp
