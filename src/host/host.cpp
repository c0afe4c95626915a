#include "host/host.h"

#include <algorithm>

#include "sim/snapshot.h"

#include "check/observer.h"

namespace dcp {

void Host::receive_fast(PacketPtr pkt, std::uint32_t /*in_port*/) {
  if (pkt->type == PktType::kPfcPause || pkt->type == PktType::kPfcResume) {
    nic_.set_paused(pkt->type == PktType::kPfcPause);
    return;
  }

  // End of the pooled path: copy the record out, return the slot, and hand
  // the value to the transport state machines.
  Packet flat = *pkt;
  pkt.reset();
  if (CheckObserver* ob = sim_.check_observer()) ob->on_host_deliver(id(), flat);

  const FlowId flow = flat.flow;
  switch (flat.type) {
    case PktType::kData: {
      if (auto* r = receiver(flow)) {
        r->on_packet(std::move(flat));
        return;
      }
      break;
    }
    case PktType::kAck:
    case PktType::kSack:
    case PktType::kNack:
    case PktType::kCnp: {
      if (auto* s = sender(flow)) {
        s->on_packet(std::move(flat));
        return;
      }
      break;
    }
    case PktType::kHeaderOnly: {
      // First leg (switch -> receiver): the receiver bounces it back.
      // Second leg (receiver -> sender): drives HO-based retransmission.
      if (auto* r = receiver(flow)) {
        r->on_packet(std::move(flat));
        return;
      }
      if (auto* s = sender(flow)) {
        s->on_packet(std::move(flat));
        return;
      }
      break;
    }
    default:
      break;
  }
  if (CheckObserver* ob = sim_.check_observer()) {
    ob->on_drop(DropSite::kHostUnroutable, id(), flat);
  }
  unroutable_++;
}

void Host::add_sender(std::unique_ptr<SenderTransport> s) {
  senders_[s->spec().id] = std::move(s);
  last_sender_ = nullptr;  // the id may have been re-bound
}

void Host::add_receiver(std::unique_ptr<ReceiverTransport> r) {
  receivers_[r->spec().id] = std::move(r);
  last_receiver_ = nullptr;
}

SenderTransport* Host::sender(FlowId id) {
  if (id == last_sender_id_ && last_sender_ != nullptr) return last_sender_;
  auto it = senders_.find(id);
  if (it == senders_.end()) return nullptr;
  last_sender_id_ = id;
  last_sender_ = it->second.get();
  return last_sender_;
}

ReceiverTransport* Host::receiver(FlowId id) {
  if (id == last_receiver_id_ && last_receiver_ != nullptr) return last_receiver_;
  auto it = receivers_.find(id);
  if (it == receivers_.end()) return nullptr;
  last_receiver_id_ = id;
  last_receiver_ = it->second.get();
  return last_receiver_;
}

void Host::checkpoint(StateIO& io) {
  io.label(0x4057u);
  // Transports exist in the rebuild (created at start_flow setup), so both
  // directions walk the same sorted id list and the per-id counts must
  // match exactly.
  auto walk = [&io](auto& map, const char* what) {
    std::vector<FlowId> ids;
    ids.reserve(map.size());
    for (auto& kv : map) ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());
    std::uint64_t n = ids.size();
    io.pod(n);
    if (!io.saving() && n != ids.size()) {
      io.fail(std::string("transport count mismatch: ") + what);
      return;
    }
    for (FlowId id : ids) {
      FlowId rid = id;
      io.pod(rid);
      if (!io.ok()) return;
      if (!io.saving() && rid != id) {
        io.fail(std::string("transport id mismatch: ") + what);
        return;
      }
      map.at(id)->checkpoint(io);
      if (!io.ok()) return;
    }
  };
  walk(senders_, "senders");
  if (!io.ok()) return;
  walk(receivers_, "receivers");
  if (!io.ok()) return;
  nic_.checkpoint(io, *this);
  io.pod(unroutable_);
  if (!io.saving()) {
    last_sender_id_ = UINT64_MAX;
    last_sender_ = nullptr;
    last_receiver_id_ = UINT64_MAX;
    last_receiver_ = nullptr;
  }
}

}  // namespace dcp
