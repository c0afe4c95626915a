#include "analysis/memory_model.h"

#include "core/tracking.h"

namespace dcp {

std::uint32_t bdp_packets(const TrackingMemoryInputs& in) {
  const double bdp_bytes = in.gbps * 1e9 / 8.0 * in.rtt_us * 1e-6;
  return static_cast<std::uint32_t>(bdp_bytes / in.mtu_bytes);
}

TrackingMemoryRow bdp_bitmap_row(const TrackingMemoryInputs& in) {
  const std::uint32_t pkts = bdp_packets(in);
  BdpBitmapTracker t(pkts);
  const std::uint64_t per_qp = t.memory_bytes() * in.bitmaps_per_qp;
  return {"BDP-sized", per_qp, per_qp, per_qp * in.qps, per_qp * in.qps};
}

TrackingMemoryRow linked_chunk_row(const TrackingMemoryInputs& in) {
  const std::uint32_t pkts = bdp_packets(in);
  // Min: the single pre-allocated chunk per QP (low OOO) times the same
  // bitmap replication factor; max: chunks for the whole BDP.
  LinkedChunkTracker min_t(pkts);
  LinkedChunkTracker max_t(pkts);
  max_t.on_packet(pkts - 1);  // force the full chain
  const std::uint64_t per_min = min_t.memory_bytes() * in.bitmaps_per_qp;
  const std::uint64_t per_max = max_t.memory_bytes() * in.bitmaps_per_qp;
  return {"Linked chunk", per_min, per_max, per_min * in.qps, per_max * in.qps};
}

TrackingMemoryRow dcp_row(const TrackingMemoryInputs& in) {
  // One single-packet message per tracked slot.
  const MessageLayout layout(std::uint64_t{in.outstanding_msgs} * kMtuPayload, kMtuPayload);
  MessageCounterTracker t(layout, in.outstanding_msgs);
  // Counters + eMSN/rRetryNo QPC fields (~16 B of per-QP context).
  const std::uint64_t per_qp = t.memory_bytes() + 16;
  return {"DCP", per_qp, per_qp, per_qp * in.qps, per_qp * in.qps};
}

}  // namespace dcp
