#pragma once
// An end host: one NIC (uplink to its leaf switch) plus the per-flow
// sender/receiver transports living on it.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "host/rnic_scheduler.h"
#include "host/transport.h"
#include "net/node.h"

namespace dcp {

class StateIO;

class Host final : public Node {
 public:
  Host(Simulator& sim, Logger& log, NodeId id, const std::string& name, Bandwidth nic_bw,
       Time link_propagation)
      : Node(sim, log, id, name, NodeKind::kHost),
        nic_(sim, nic_bw, link_propagation) {}

  RnicScheduler& nic() { return nic_; }
  void connect(Node* sw, std::uint32_t sw_port) { nic_.channel().connect(sw, sw_port); }

  using Node::receive;
  /// Virtual entry for callers holding a Node* (tests, tools): same body
  /// as the statically-dispatched entry.
  void receive(PacketPtr pkt, std::uint32_t in_port) override { receive_fast(std::move(pkt), in_port); }
  /// Statically-dispatched delivery entry (Channel::arrive casts to the
  /// final type and calls this non-virtually).  Copies the packet out of
  /// its pool slot once and hands it to the transport state machines by
  /// value.
  void receive_fast(PacketPtr pkt, std::uint32_t in_port);

  void add_sender(std::unique_ptr<SenderTransport> s);
  void add_receiver(std::unique_ptr<ReceiverTransport> r);
  SenderTransport* sender(FlowId id);
  ReceiverTransport* receiver(FlowId id);

  /// All transports living on this host (live sampling, e.g. the recovery
  /// statistics collector).  Transports persist after flow completion, so
  /// iterating these covers finished flows too.
  const std::unordered_map<FlowId, std::unique_ptr<SenderTransport>>& senders() const {
    return senders_;
  }
  const std::unordered_map<FlowId, std::unique_ptr<ReceiverTransport>>& receivers() const {
    return receivers_;
  }

  /// Fired when a sender considers its flow fully acknowledged.
  std::function<void(FlowId)> on_sender_done;
  /// Fired when a receiver has every byte of the flow.
  std::function<void(FlowId)> on_receiver_done;

  std::uint64_t unroutable_packets() const { return unroutable_; }

  /// Checkpoint hook (sim/snapshot.h): every per-flow transport (sorted by
  /// flow id) and the NIC scheduler.  The MRU transport memo is reset on
  /// load rather than saved (pure cache).
  void checkpoint(StateIO& io);

 private:
  RnicScheduler nic_;
  std::unordered_map<FlowId, std::unique_ptr<SenderTransport>> senders_;
  std::unordered_map<FlowId, std::unique_ptr<ReceiverTransport>> receivers_;
  // MRU memo of the maps above (hit on nearly every delivery — packets of
  // one flow arrive in trains).  Pure cache: transport addresses are
  // stable, and add_* invalidates.
  FlowId last_sender_id_ = UINT64_MAX;
  SenderTransport* last_sender_ = nullptr;
  FlowId last_receiver_id_ = UINT64_MAX;
  ReceiverTransport* last_receiver_ = nullptr;
  std::uint64_t unroutable_ = 0;
};

}  // namespace dcp
