// Unit tests for the analytic models backing Tables 1-4 and Fig. 7.

#include <gtest/gtest.h>

#include "analysis/feature_matrix.h"
#include "analysis/lossless_distance.h"
#include "analysis/memory_model.h"
#include "analysis/packet_rate_model.h"
#include "analysis/resource_proxy.h"

namespace dcp {
namespace {

TEST(Table1, BufferPerPortMatchesPaper) {
  for (const auto& a : commodity_asics()) {
    const double b = buffer_per_port_per_100g_mb(a);
    if (a.name == "Tomahawk 3") {
      EXPECT_NEAR(b, 0.5, 0.01);
    }
    if (a.name == "Tomahawk 5") {
      EXPECT_NEAR(b, 0.32, 0.01);
    }
    if (a.name == "Tofino 1") {
      EXPECT_NEAR(b, 0.62, 0.01);
    }
    if (a.name == "Spectrum-4") {
      EXPECT_NEAR(b, 0.31, 0.01);
    }
  }
}

TEST(Table1, LosslessDistancesMatchPaper) {
  for (const auto& a : commodity_asics()) {
    const double km1 = max_lossless_km(a, 1);
    const double km8 = max_lossless_km(a, 8);
    EXPECT_NEAR(km1 / 8.0, km8, 0.01);
    if (a.name == "Tomahawk 3") {
      EXPECT_NEAR(km1, 4.1, 0.15);
      EXPECT_NEAR(km8 * 1000, 512, 15);  // meters
    }
    if (a.name == "Tofino 1") {
      EXPECT_NEAR(km1, 5.08, 0.2);
    }
    if (a.name == "Spectrum-4") {
      EXPECT_NEAR(km8 * 1000, 320, 15);
    }
  }
}

TEST(Table2, OnlyDcpMeetsAllRequirements) {
  int all_four = 0;
  for (const auto& s : feature_matrix()) {
    const bool all = s.r1_no_pfc && s.r2_packet_level_lb && s.r3_fast_retx_any && s.r4_hw_friendly;
    if (all) {
      ++all_four;
      EXPECT_EQ(s.name, "DCP");
    }
  }
  EXPECT_EQ(all_four, 1);
}

TEST(Table3, BdpGeometry) {
  EXPECT_EQ(bdp_packets(), 500u);  // 400G x 10us / 1KB
}

TEST(Table3, DcpOrdersOfMagnitudeSmaller) {
  const auto bdp = bdp_bitmap_row();
  const auto chunk = linked_chunk_row();
  const auto dcp = dcp_row();
  EXPECT_GT(bdp.per_qp_bytes_max, 100u);
  EXPECT_LE(dcp.per_qp_bytes_max, 64u);
  EXPECT_LT(dcp.per_qp_bytes_max, bdp.per_qp_bytes_max / 5);
  // Linked chunks range from small (low OOO) up to ~the BDP bitmap.
  EXPECT_LT(chunk.per_qp_bytes_min, chunk.per_qp_bytes_max);
  EXPECT_LE(chunk.per_qp_bytes_max, bdp.per_qp_bytes_max * 2);
  // Fleet totals scale by QP count.
  EXPECT_EQ(dcp.total_10k_qps_max, dcp.per_qp_bytes_max * kTable3Qps);
}

TEST(Fig7, DcpFlatOthersDegrade) {
  const auto sweep = packet_rate_sweep(448, 64, 300.0);
  ASSERT_GE(sweep.size(), 4u);
  const auto& first = sweep.front();
  const auto& last = sweep.back();
  // DCP and the BDP bitmap are OOO-independent.
  EXPECT_NEAR(first.dcp_mpps, last.dcp_mpps, 1.0);
  EXPECT_NEAR(first.bdp_bitmap_mpps, last.bdp_bitmap_mpps, 1.0);
  EXPECT_DOUBLE_EQ(first.dcp_mpps, 300.0);        // 1 step @ 300 MHz
  EXPECT_DOUBLE_EQ(first.bdp_bitmap_mpps, 150.0);  // 2 steps
  // Linked chunk collapses as the OOO degree grows.
  EXPECT_LT(last.linked_chunk_mpps, first.linked_chunk_mpps / 2);
  // 50 Mpps sustains 400G with 1KB MTU; the linked chunk falls below it.
  EXPECT_LT(last.linked_chunk_mpps, 60.0);
}

TEST(Table4, DcpOverheadIsMarginalVsGbn) {
  const auto rows = resource_proxy_rows(500);
  const auto* gbn = &rows[0];
  const ResourceRow* dcp = nullptr;
  const ResourceRow* rack = nullptr;
  for (const auto& r : rows) {
    if (r.scheme == "DCP-RNIC") dcp = &r;
    if (r.scheme == "RACK-TLP") rack = &r;
  }
  ASSERT_NE(dcp, nullptr);
  ASSERT_NE(rack, nullptr);
  // DCP's tracking adds only a few dozen bytes over GBN's zero...
  EXPECT_LE(dcp->tracking_bytes, 64u);
  // ...whereas RACK-TLP pays 8 B per BDP packet.
  EXPECT_EQ(rack->tracking_bytes, 500u * 8);
  EXPECT_EQ(gbn->tracking_bytes, 0u);
}

}  // namespace
}  // namespace dcp
