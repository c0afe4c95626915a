#include "analysis/packet_rate_model.h"

#include "core/tracking.h"

namespace dcp {
namespace {

/// Average steps/packet when every arrival lands `degree` PSNs beyond the
/// window head (the sustained-OOO regime of Fig. 7).
template <typename Tracker>
double avg_steps(Tracker& t, int degree, int rounds) {
  std::uint64_t steps = 0;
  std::uint64_t pkts = 0;
  std::uint32_t head = 0;
  for (int r = 0; r < rounds; ++r) {
    steps += static_cast<std::uint64_t>(t.on_packet(head + static_cast<std::uint32_t>(degree)));
    ++pkts;
    ++head;
    t.advance_head(head);
  }
  return static_cast<double>(steps) / static_cast<double>(pkts);
}

}  // namespace

std::vector<PacketRatePoint> packet_rate_sweep(int max_degree, int stride, double clock_mhz) {
  std::vector<PacketRatePoint> out;
  constexpr int kRounds = 512;
  for (int d = 0; d <= max_degree; d += stride) {
    const std::uint32_t window = static_cast<std::uint32_t>(max_degree) + 1024;

    BdpBitmapTracker bdp(window);
    LinkedChunkTracker chunk(window * 4);
    // DCP: geometry doesn't matter for cost; 64 messages of 2^20 packets.
    constexpr std::uint64_t kMsgBytes = std::uint64_t{kMtuPayload} << 20;
    MessageCounterTracker dcpt(MessageLayout(64 * kMsgBytes, kMsgBytes), 8);

    PacketRatePoint p;
    p.ooo_degree = d;
    p.bdp_bitmap_mpps = packet_rate_mpps(clock_mhz, avg_steps(bdp, d, kRounds));
    p.linked_chunk_mpps = packet_rate_mpps(clock_mhz, avg_steps(chunk, d, kRounds));
    p.dcp_mpps = packet_rate_mpps(clock_mhz, avg_steps(dcpt, d, kRounds));
    out.push_back(p);
  }
  return out;
}

}  // namespace dcp
