#pragma once
// A small ibverbs-flavoured API over the simulated fabric, used by the
// example applications: Devices own QueuePairs; work requests posted to a
// QP become DCP (or baseline) flows; completions are polled from a CQ.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/ring.h"
#include "topo/network.h"

namespace dcp::verbs {

struct WorkCompletion {
  std::uint64_t wr_id = 0;
  FlowId flow = 0;
  Time completed_at = 0;
  std::uint64_t bytes = 0;
  RdmaOp op = RdmaOp::kWrite;
};

/// RC queue pair lifecycle (the ibverbs state machine, §11 of the IB
/// spec): RESET -> INIT -> RTR (ready to receive) -> RTS (ready to send).
/// Any illegal transition or a fatal condition moves the QP to ERROR.
enum class QpState { kReset, kInit, kRtr, kRts, kError };

const char* qp_state_name(QpState s);

class Device;
class QueuePair;

/// Shared Receive Queue: a pool of Receive WQEs consumed by *any* QP bound
/// to it (in arrival order), the standard way to avoid per-QP receive
/// buffer provisioning at scale.
class SharedReceiveQueue {
 public:
  /// Posting may immediately satisfy RNR-waiting messages on bound QPs.
  void post_recv(std::uint64_t wr_id);
  std::size_t posted() const { return wqes_.size(); }

 private:
  friend class QueuePair;
  std::optional<std::uint64_t> take() {
    if (wqes_.empty()) return std::nullopt;
    const std::uint64_t id = wqes_.front();
    wqes_.pop_front();
    return id;
  }
  Ring<std::uint64_t> wqes_;
  std::vector<QueuePair*> bound_;
};

/// A reliable-connected queue pair between two hosts.
///
/// Two-sided semantics (§4.4): Send and Write-with-Immediate work requests
/// consume Receive WQEs at the responder *in posting order* (the SSN
/// carried in every DCP Send packet identifies the matching Receive WQE).
/// Post receive buffers with `post_recv` and poll responder-side
/// completions with `poll_recv_cq`.  An arriving Send with no Receive WQE
/// posted waits (RNR) and is delivered as soon as one is posted.
class QueuePair {
 public:
  /// Posts a send/write work request of `bytes`; the flow starts at the
  /// current simulation time.  Returns the flow id backing the WR, or 0 if
  /// the QP is not in RTS (the work request is rejected).
  FlowId post(std::uint64_t bytes, std::uint64_t wr_id, RdmaOp op = RdmaOp::kWrite);

  /// Posts a Receive WQE at the responder (consumed by Send /
  /// Write-with-Imm requests in order).  Legal from INIT onward; rejected
  /// (returning false) in RESET/ERROR.
  bool post_recv(std::uint64_t wr_id);

  // --- Lifecycle -----------------------------------------------------------
  QpState state() const { return state_; }
  /// Explicit ibverbs-style transition; returns false (and moves the QP to
  /// ERROR on gross misuse) if the transition is not legal from the
  /// current state.  Legal chain: RESET->INIT->RTR->RTS; any state may go
  /// to ERROR; ERROR->RESET recycles the QP.
  bool modify(QpState next);
  /// Convenience: performs INIT->RTR->RTS after a simulated connection
  /// handshake (~1 fabric RTT), then invokes `on_connected`.
  void connect(std::function<void()> on_connected = nullptr);
  std::uint64_t rejected_posts() const { return rejected_posts_; }

  /// Polls one requester-side completion off the CQ; false when empty.
  bool poll_cq(WorkCompletion& wc);

  /// Polls one responder-side completion (a matched Receive WQE).
  bool poll_recv_cq(WorkCompletion& wc);

  /// Binds this QP's responder side to a shared receive queue; incoming
  /// Sends then consume SRQ WQEs instead of the per-QP RQ.
  void bind_srq(SharedReceiveQueue* srq);

  std::size_t outstanding() const { return outstanding_; }
  std::size_t recv_wqes_posted() const { return srq_ != nullptr ? srq_->posted() : rq_.size(); }
  std::size_t rnr_waiting() const { return unmatched_.size(); }
  NodeId local() const { return local_; }
  NodeId remote() const { return remote_; }

 private:
  friend class Device;
  friend class SharedReceiveQueue;
  QueuePair(Device& dev, NodeId local, NodeId remote, std::uint64_t msg_bytes)
      : dev_(dev), local_(local), remote_(remote), msg_bytes_(msg_bytes) {}
  void complete(const FlowRecord& rec);
  void received(const FlowRecord& rec);
  void match_receives();

  struct RecvWqe {
    std::uint64_t wr_id;
  };

  Device& dev_;
  NodeId local_;
  NodeId remote_;
  std::uint64_t msg_bytes_;
  SharedReceiveQueue* srq_ = nullptr;
  QpState state_ = QpState::kReset;
  std::uint64_t rejected_posts_ = 0;
  std::size_t outstanding_ = 0;
  Ring<WorkCompletion> cq_;         // requester completions
  Ring<WorkCompletion> recv_cq_;    // responder completions
  Ring<RecvWqe> rq_;                // posted Receive WQEs
  Ring<WorkCompletion> unmatched_;  // arrived Sends awaiting a WQE (RNR)
  std::unordered_map<FlowId, std::uint64_t> wr_of_flow_;
};

/// One Device per Network; multiplexes flow completions to QPs.
class Device {
 public:
  explicit Device(Network& net);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Creates an RC queue pair; `msg_bytes` is the message granularity DCP
  /// tracks (NCCL-style chunking).  With `auto_connect` (default) the QP
  /// comes up in RTS immediately; pass false to drive the RESET -> INIT ->
  /// RTR -> RTS state machine explicitly (or use connect()).
  QueuePair& create_qp(NodeId local, NodeId remote, std::uint64_t msg_bytes = 1024 * 1024,
                       bool auto_connect = true);

  Network& network() { return net_; }

 private:
  friend class QueuePair;
  Network& net_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
  std::unordered_map<FlowId, QueuePair*> owner_;
};

}  // namespace dcp::verbs
