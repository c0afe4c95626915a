#pragma once
// Base class for anything attached to the network graph (hosts, switches).

#include <cstdint>
#include <string>
#include <utility>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/logger.h"
#include "sim/simulator.h"

namespace dcp {

/// Concrete datapath type of a Node, cached by Channel at connect() time
/// so delivery can static-dispatch to Switch/Host::receive_fast instead of
/// the virtual hop (kOther — test sinks, tools — keeps the virtual path).
enum class NodeKind : std::uint8_t { kOther = 0, kHost = 1, kSwitch = 2 };

class Node {
 public:
  /// `name` is not kept: nothing reads node names.
  Node(Simulator& sim, Logger& log, NodeId id, const std::string& name)
      : Node(sim, log, id, name, NodeKind::kOther) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }
  /// The simulator driving this node — in a sharded run, the node's shard.
  Simulator& sim() { return sim_; }

  /// Delivery of a pooled packet arriving on `in_port`.  The node owns the
  /// handle from here on: forwarding moves it onward, dropping just lets
  /// it die (the slot returns to the pool).
  virtual void receive(PacketPtr pkt, std::uint32_t in_port) = 0;

  /// Convenience for tests and tools that build packets by value: pools
  /// the packet and forwards to the virtual overload.  Subclasses pull
  /// both into scope with `using Node::receive;`.
  void receive(Packet pkt, std::uint32_t in_port) {
    receive(PacketPtr::make(std::move(pkt)), in_port);
  }

 protected:
  Node(Simulator& sim, Logger& log, NodeId id, const std::string& /*name*/, NodeKind kind)
      : sim_(sim), log_(log), id_(id), kind_(kind) {}

  Simulator& sim_;
  Logger& log_;

 private:
  NodeId id_;
  NodeKind kind_ = NodeKind::kOther;
};

}  // namespace dcp
