#pragma once
// InvariantOracle: a CheckObserver that validates live, per-event protocol
// invariants across every scheme while a simulation runs, and closes its
// conservation ledgers when the run ends.  See docs/invariants.md for the
// catalogue and the paper sections each invariant pins down.
//
// Invariant ids (stable strings, used by tests and the fuzzer's shrinker):
//   exactly-once-completion  a flow's rx/tx completion fired more than once
//   exactly-once-message     a DCP message CQE duplicated or out of order
//   psn-monotonic            new-data PSNs not strictly increasing, or a
//                            "retransmission" of a never-sent PSN
//   ack-monotonic            DCP ACK eMSN or cumulative arrival count went
//                            backwards (§4.4: both are monotone)
//   retry-escalation         a data packet's sRetryNo regressed (§4.5)
//   ho-conservation          a bounced HO with no trimmed arrival behind it,
//                            or trims + bounces != deliveries + losses at
//                            end of run (§4.2: every trim becomes exactly
//                            one HO that lands or dies observably)
//   buffer-conservation      shared-buffer accounting diverged from the
//                            oracle's shadow ledger (double alloc, release
//                            without alloc, or cells still held at quiesce)
//   bounded-tracking         the DCP receiver's tracking state scales with
//                            the flow instead of the outstanding window
//                            (§4.5: per-message counters + eMSN, no bitmap)
//   completion-consistency   a completed flow whose receiver accounted a
//                            byte count different from the flow size
//   recovery-accounting      an FEC flow "recovered" (by parity decode or
//                            NACK retransmission) more chunks than the flow
//                            has data packets — a double-credited repair
//   no-silent-deadlock       the simulator quiesced with an incomplete flow
//
// Usage: construct after the topology is built, run, then finalize():
//
//   InvariantOracle oracle(net);
//   net.run_until_done(max_time);
//   oracle.finalize();
//   ASSERT_TRUE(oracle.ok()) << oracle.summary();

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/observer.h"
#include "topo/network.h"

namespace dcp {

class StateIO;

struct InvariantViolation {
  std::string invariant;  // stable id from the catalogue above
  std::string detail;
  Time at = 0;
};

class InvariantOracle final : public CheckObserver {
 public:
  explicit InvariantOracle(Network& net);
  ~InvariantOracle() override;
  InvariantOracle(const InvariantOracle&) = delete;
  InvariantOracle& operator=(const InvariantOracle&) = delete;

  /// End-of-run audit: conservation ledgers, completion consistency and
  /// deadlock detection.  Ledger checks only apply when the simulator
  /// actually quiesced (a max-time stop legitimately strands in-flight
  /// state).  Idempotent.
  void finalize();

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const { return violations_; }
  /// First violation in event order, or nullptr when clean.
  const InvariantViolation* first() const {
    return violations_.empty() ? nullptr : &violations_.front();
  }
  /// One-line human summary: first violation + total count.
  std::string summary() const;
  /// The event-ring tail leading up to the first violation, one event per
  /// line (recording freezes at the first violation).
  std::string trace_slice(std::size_t max_events = 40) const;

  /// Arms conservation checking on a buffer the constructor could not see
  /// (tests driving a SharedBuffer directly).
  void watch_buffer(SharedBuffer& buf);

  /// Checkpoint hook (sim/snapshot.h): per-flow ledgers, buffer shadows,
  /// the event ring and recorded violations.  The observer registration
  /// and buffer hook pointers come from the rebuild, not the image.
  void checkpoint(StateIO& io);

  // ---- CheckObserver ------------------------------------------------------
  void on_host_send(const Packet& pkt) override;
  void on_host_deliver(NodeId host, const Packet& pkt) override;
  void on_msg_complete(FlowId flow, std::uint32_t msn) override;
  void on_rx_complete(FlowId flow) override;
  void on_tx_complete(FlowId flow) override;
  void on_trim(NodeId sw, const Packet& ho) override;
  void on_drop(DropSite site, NodeId node, const Packet& pkt) override;
  void on_buffer_alloc(const SharedBuffer* buf, std::uint32_t in_port, std::uint8_t cls,
                       std::uint64_t bytes, std::uint64_t used_after) override;
  void on_buffer_release(const SharedBuffer* buf, std::uint32_t in_port, std::uint8_t cls,
                         std::uint64_t bytes, std::uint64_t used_after) override;

 private:
  struct FlowState {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    bool endpoints_known = false;
    std::int64_t max_new_psn = -1;  // highest non-retransmit data PSN sent
    std::uint32_t next_msg = 0;     // next MSN expected to complete
    std::uint32_t rx_fires = 0;
    std::uint32_t tx_fires = 0;
    std::int64_t max_ack_emsn = -1;
    std::int64_t max_ack_cnt = -1;
    // HO lifecycle ledger (all counters are packets).
    std::uint64_t trims = 0;      // data packets trimmed for this flow
    std::uint64_t bounces = 0;    // HOs the receiver host emitted
    std::uint64_t ho_to_rx = 0;   // HOs delivered at the destination host
    std::uint64_t ho_to_tx = 0;   // HOs delivered at the source host
    std::uint64_t ho_other = 0;   // HOs delivered before endpoints were known
    std::uint64_t ho_lost = 0;    // HOs that died at an observed drop site
    std::vector<std::uint8_t> retry_seen;  // per-MSN high-water sRetryNo
    bool tracking_checked = false;
  };

  struct TraceEv {
    Time at = 0;
    std::uint8_t kind = 0;  // 'S'end 'D'eliver 'T'rim 'X'drop 'M'sg 'R'x 'F'(tx)
    std::uint8_t site = 0;  // DropSite for kind 'X'
    PktType type = PktType::kData;
    NodeId node = kInvalidNode;
    FlowId flow = 0;
    std::uint32_t psn = 0;
    std::uint32_t msn = 0;
    std::uint8_t retry = 0;
  };

  FlowState& flow(FlowId id);
  BufferShadow& buf_state(const SharedBuffer* buf);
  /// Timestamp for violations/trace events: the executing shard's clock
  /// (Simulator::active()), falling back to the primary sim outside a run.
  Time stamp() const;
  void violate(const char* invariant, std::string detail);
  void record(std::uint8_t kind, NodeId node, const Packet& pkt, std::uint8_t site = 0);
  void check_bounded_tracking(FlowId id, FlowState& f);

  Network& net_;
  Simulator& sim_;  // cached: record() reads the clock on every hot hook
  // Sharded runs fire hooks from every shard's worker concurrently; all
  // oracle state is cross-flow, so the public hooks serialize on mu_ when
  // armed on a sharded group (serial runs skip the lock entirely).
  // Violation/trace timestamps come from the executing shard's own clock
  // via stamp() — reading another shard's now() would be a data race.
  bool mt_ = false;
  std::mutex mu_;
  CheckObserver* prev_ = nullptr;
  std::vector<SharedBuffer*> watched_;
  // Flow ids are dense (Network hands them out sequentially from 1), so the
  // per-event lookup is a plain vector index; the map only catches a rogue
  // id a broken component might forge.  States live by value — growth moves
  // them, so no FlowState reference may be held across flow() calls.
  static constexpr FlowId kDenseFlowLimit = 1u << 20;
  std::vector<FlowState> flows_;
  std::unordered_map<FlowId, FlowState> sparse_flows_;
  // A handful of buffers per topology; the shadows are heap-held so the
  // pointer handed to SharedBuffer stays stable as this vector grows.
  // The clean-path replay runs inline at the alloc/release sites (see
  // check/observer.h), so the virtual hooks below only fire on divergence.
  std::vector<std::pair<const SharedBuffer*, std::unique_ptr<BufferShadow>>> buffers_;
  static constexpr std::size_t kTraceRingEvents = 256;  // the event ring behind trace_slice()
  static constexpr std::size_t kMaxViolations = 64;     // stop recording beyond this many
  static_assert((kTraceRingEvents & (kTraceRingEvents - 1)) == 0, "ring index is masked");
  std::array<TraceEv, kTraceRingEvents> ring_{};
  std::size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
  bool frozen_ = false;  // stop tracing after the first violation
  std::vector<InvariantViolation> violations_;
  std::uint64_t suppressed_ = 0;  // violations beyond kMaxViolations
  bool finalized_ = false;
};

}  // namespace dcp
