#pragma once
// Table 3: receiver-side packet-tracking memory for the three schemes, in
// the paper's typical intra-DC setting (400 Gbps, 10 us RTT, 1 KB MTU).

#include <cstdint>

namespace dcp {

struct TrackingMemoryRow {
  const char* scheme;
  std::uint64_t per_qp_bytes_min;
  std::uint64_t per_qp_bytes_max;
  std::uint64_t total_10k_qps_min;
  std::uint64_t total_10k_qps_max;
};

/// The paper's intra-DC geometry.  The MTU and the DCP message window are
/// the simulator's own: kMtuPayload and kDcpOutstandingMsgs.
inline constexpr double kTable3Gbps = 400.0;
inline constexpr double kTable3RttUs = 10.0;
inline constexpr std::uint32_t kTable3BitmapsPerQp = 5;  // RNIC designs keep several BDP bitmaps
inline constexpr std::uint32_t kTable3Qps = 10'000;

std::uint32_t bdp_packets();

/// Rows: BDP-sized, Linked chunk, DCP — min/max per QP and fleet totals.
/// Computed from the same structures the simulator uses, instantiated at
/// the BDP geometry.
TrackingMemoryRow bdp_bitmap_row();
TrackingMemoryRow linked_chunk_row();
TrackingMemoryRow dcp_row();

}  // namespace dcp
