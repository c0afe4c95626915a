// Unit + property tests for the three packet-tracking structures of §4.5.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/tracking.h"
#include "sim/rng.h"

namespace dcp {
namespace {

TEST(BdpBitmap, ConstantTwoStepAccess) {
  BdpBitmapTracker t(512);
  EXPECT_EQ(t.on_packet(0), 2);
  EXPECT_EQ(t.on_packet(511), 2);
  EXPECT_EQ(t.on_packet(63), 2);
}

TEST(BdpBitmap, MarksAndClears) {
  BdpBitmapTracker t(128);
  EXPECT_FALSE(t.is_received(5));
  t.on_packet(5);
  EXPECT_TRUE(t.is_received(5));
  t.advance_head(10);
  // Slot 5 recycled for PSN 133 (5 + 128).
  EXPECT_FALSE(t.is_received(133));
  t.on_packet(133);
  EXPECT_TRUE(t.is_received(133));
}

TEST(BdpBitmap, MemoryIsWindowBits) {
  BdpBitmapTracker t(512);
  EXPECT_EQ(t.memory_bytes(), 512u / 8);
}

TEST(LinkedChunk, StepsGrowWithOooDegree) {
  LinkedChunkTracker t;
  const int near = t.on_packet(0);
  LinkedChunkTracker t2;
  const int far = t2.on_packet(10 * LinkedChunkTracker::kChunkBits);
  EXPECT_LT(near, far);
  EXPECT_EQ(far - near, 10);  // one pointer chase per chunk
}

TEST(LinkedChunk, MemoryGrowsAndShrinksWithWindow) {
  LinkedChunkTracker t;
  const auto base = t.memory_bytes();
  t.on_packet(5 * LinkedChunkTracker::kChunkBits);
  EXPECT_GT(t.memory_bytes(), base);
  t.advance_head(5 * LinkedChunkTracker::kChunkBits);
  EXPECT_LT(t.memory_bytes(), 5 * base);
}

TEST(LinkedChunk, TracksBitsCorrectlyAcrossChunks) {
  LinkedChunkTracker t;
  for (std::uint32_t psn : {0u, 127u, 128u, 300u, 511u}) {
    EXPECT_FALSE(t.is_received(psn));
    t.on_packet(psn);
    EXPECT_TRUE(t.is_received(psn)) << psn;
  }
  EXPECT_FALSE(t.is_received(1));
  EXPECT_FALSE(t.is_received(129));
}

TEST(MessageCounter, CompletesExactlyAtMessageSize) {
  MessageCounterTracker t(MessageLayout(5 * kMtuPayload, 3 * kMtuPayload), 8);  // 3 + 2 pkts
  EXPECT_FALSE(t.message_complete(0));
  t.count_packet(0);
  t.count_packet(0);
  EXPECT_FALSE(t.message_complete(0));
  t.count_packet(0);
  EXPECT_TRUE(t.message_complete(0));
  EXPECT_EQ(t.emsn(), 1u);
}

TEST(MessageCounter, OutOfOrderMessageCompletionHoldsEmsn) {
  MessageCounterTracker t(MessageLayout(6 * kMtuPayload, 2 * kMtuPayload), 8);  // 3 x 2 pkts
  // Complete message 1 first; eMSN must stay 0 (in-order CQE delivery).
  t.count_packet(1);
  t.count_packet(1);
  EXPECT_TRUE(t.message_complete(1));
  EXPECT_EQ(t.emsn(), 0u);
  t.count_packet(0);
  t.count_packet(0);
  // Completing 0 releases both 0 and 1.
  EXPECT_EQ(t.emsn(), 2u);
}

TEST(MessageCounter, RejectsOutOfWindowAndStale) {
  MessageCounterTracker t(MessageLayout(20 * kMtuPayload, kMtuPayload), 4);  // 20 x 1 pkt
  EXPECT_FALSE(t.count_packet(7));  // beyond eMSN + outstanding
  t.count_packet(0);
  EXPECT_EQ(t.emsn(), 1u);
  EXPECT_FALSE(t.count_packet(0));  // below eMSN: stale
}

TEST(MessageCounter, ResetRestartsCounting) {
  MessageCounterTracker t(MessageLayout(3 * kMtuPayload, 0), 8);  // one 3-pkt message
  t.count_packet(0);
  t.count_packet(0);
  t.reset_message(0);
  t.count_packet(0);
  t.count_packet(0);
  EXPECT_FALSE(t.message_complete(0));
  t.count_packet(0);
  EXPECT_TRUE(t.message_complete(0));
}

TEST(MessageCounter, ConstantSingleStep) {
  MessageCounterTracker t(MessageLayout(64'000 * kMtuPayload, 1000 * kMtuPayload), 8);
  EXPECT_EQ(t.on_packet(0), 1);
  EXPECT_EQ(t.on_packet(999), 1);
}

TEST(MessageCounter, MemoryIsTwoBytesPerTrackedMessage) {
  MessageCounterTracker t(MessageLayout(500 * kMtuPayload, 5 * kMtuPayload), 8);
  EXPECT_EQ(t.memory_bytes(), 16u);  // paper: 2 B per message × 8
}

TEST(PacketRateModel, MatchesClockOverSteps) {
  EXPECT_DOUBLE_EQ(packet_rate_mpps(300.0, 2.0), 150.0);
  EXPECT_DOUBLE_EQ(packet_rate_mpps(300.0, 1.0), 300.0);
}

// ---------------------------------------------------------------------------
// Property: under any random arrival order, the bitmap-free tracker reports
// message completion exactly when a reference per-packet bitmap does.
// ---------------------------------------------------------------------------

class TrackerEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerEquivalence, MessageCompletionMatchesReferenceBitmap) {
  Rng rng(GetParam());
  // A uniform-plus-tail geometry: num_msgs - 1 messages of `full` packets,
  // then a tail of 1..full packets whose last packet may be short.
  const std::uint32_t num_msgs = 1 + static_cast<std::uint32_t>(rng.uniform_int(1, 6));
  const std::uint32_t full = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, 9));
  const std::uint32_t tail = 1 + static_cast<std::uint32_t>(rng.uniform_int(0, full - 1));
  std::vector<std::uint32_t> msg_pkts(num_msgs - 1, full);
  msg_pkts.push_back(tail);
  const std::uint32_t total = (num_msgs - 1) * full + tail;
  const auto short_by = static_cast<std::uint64_t>(rng.uniform_int(0, kMtuPayload - 1));
  const MessageLayout layout(std::uint64_t{total} * kMtuPayload - short_by,
                             std::uint64_t{full} * kMtuPayload);
  ASSERT_EQ(layout.num_msgs, num_msgs);
  ASSERT_EQ(layout.total_pkts, total);
  MessageCounterTracker dcp_tracker(layout, 8);

  // Reference: exact per-packet bitmap.
  std::vector<bool> ref(total, false);
  auto ref_msg_complete = [&](std::uint32_t m) {
    std::uint32_t start = 0;
    for (std::uint32_t i = 0; i < m; ++i) start += msg_pkts[i];
    for (std::uint32_t p = start; p < start + msg_pkts[m]; ++p) {
      if (!ref[p]) return false;
    }
    return true;
  };

  // Exactly-once random-order delivery (the lossless-CP guarantee).
  std::vector<std::uint32_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());

  for (std::uint32_t psn : order) {
    ref[psn] = true;
    dcp_tracker.on_packet(psn);
    for (std::uint32_t q = 0; q < num_msgs; ++q) {
      // Within the active window the two views must agree exactly.
      if (q >= dcp_tracker.emsn() && q < dcp_tracker.emsn() + 8) {
        EXPECT_EQ(dcp_tracker.message_complete(q), ref_msg_complete(q))
            << "msg " << q << " seed " << GetParam();
      }
    }
  }
  EXPECT_EQ(dcp_tracker.emsn(), num_msgs);
}

INSTANTIATE_TEST_SUITE_P(RandomOrders, TrackerEquivalence, ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace dcp
