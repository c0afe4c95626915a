// Table 3: receiver-side packet-tracking memory overhead for BDP-sized
// bitmaps, linked chunks, and DCP's bitmap-free counters.  The per-QP
// numbers are measured from the actual tracking structures instantiated at
// the paper's intra-DC geometry (400 Gbps, 10 us RTT).

#include <cstdio>

#include "analysis/memory_model.h"
#include "harness/report.h"

int main() {
  using namespace dcp;
  banner("Table 3: memory overhead for packet tracking (400G, 10us RTT)");

  const auto rows = {bdp_bitmap_row(), linked_chunk_row(), dcp_row()};

  Table t({"Scheme", "Per-QP (intra-DC)", "10k QPs (intra-DC)"});
  for (const TrackingMemoryRow& r : rows) {
    std::string per_qp = Table::bytes_human(r.per_qp_bytes_min);
    if (r.per_qp_bytes_min != r.per_qp_bytes_max) {
      per_qp += " ~ " + Table::bytes_human(r.per_qp_bytes_max);
    }
    std::string total = Table::bytes_human(r.total_10k_qps_min);
    if (r.total_10k_qps_min != r.total_10k_qps_max) {
      total += " ~ " + Table::bytes_human(r.total_10k_qps_max);
    }
    t.add_row({r.scheme, per_qp, total});
  }
  t.print();

  std::printf("\nBDP = %u packets.  Paper reference: 320B / 80B~320B / 32B per QP and\n"
              "3MB / 0.76MB~3MB / 0.3MB for 10k QPs.  The BDP bitmap exceeds typical\n"
              "RNIC SRAM (~2MB) as connections scale; DCP needs log2(n) bits.\n",
              bdp_packets());
  return 0;
}
