#include "host/rnic_scheduler.h"

#include "host/host.h"
#include "sim/snapshot.h"

#include <algorithm>

#include "check/observer.h"

namespace dcp {

void RnicScheduler::send_control(Packet pkt) {
  control_q_.push_back(PacketPtr::make(std::move(pkt)));
  kick();
}

void RnicScheduler::register_sender(SenderTransport* s) {
  senders_.push_back(s);
  kick();
}

void RnicScheduler::deregister_sender(SenderTransport* s) {
  auto it = std::find(senders_.begin(), senders_.end(), s);
  if (it == senders_.end()) return;
  const std::size_t idx = static_cast<std::size_t>(it - senders_.begin());
  senders_.erase(it);
  if (rr_ > idx) --rr_;
  if (!senders_.empty()) rr_ %= senders_.size();
}

void RnicScheduler::set_paused(bool paused) {
  paused_ = paused;
  if (!paused_) kick();
}

void RnicScheduler::transmit(PacketPtr pkt) {
  tx_packets_++;
  tx_bytes_ += pkt->wire_bytes;
  if (CheckObserver* ob = sim_.check_observer()) ob->on_host_send(*pkt);
  const Time ser = channel_.serialization(pkt->wire_bytes);
  channel_.deliver(std::move(pkt), ser);
  transmitting_ = true;
  tx_done_.arm(ser);
}

void RnicScheduler::kick() {
  if (transmitting_ || paused_) return;
  wakeup_.cancel();

  // Stage 1: control packets (strict priority).
  if (!control_q_.empty()) {
    PacketPtr pkt = std::move(control_q_.front());
    control_q_.pop_front();
    transmit(std::move(pkt));
    return;
  }

  // Stage 2: round-robin over active QPs with an eligible packet.
  const Time now = sim_.now();
  const std::size_t n = senders_.size();
  for (std::size_t i = 0; i < n; ++i) {
    SenderTransport* s = senders_[(rr_ + i) % n];
    if (s->has_packet(now)) {
      rr_ = (rr_ + i + 1) % n;
      // Injection point: the one Packet copy of the datapath, into a
      // pooled slot the rest of the path moves by handle.
      transmit(PacketPtr::make(s->next_packet()));
      return;
    }
  }

  // Nothing eligible now; wake up when the earliest pacing gate opens.
  Time earliest = kTimeInfinity;
  for (SenderTransport* s : senders_) {
    earliest = std::min(earliest, s->next_eligible(now));
  }
  if (earliest != kTimeInfinity && earliest > now) {
    wakeup_.arm_at(earliest);
  }
}


void RnicScheduler::checkpoint(StateIO& io, Host& host) {
  io.label(0x121Cu);
  channel_.checkpoint(io);
  // Control queue: packet records in FIFO order.
  std::uint64_t nq = control_q_.size();
  io.pod(nq);
  if (io.saving()) {
    for (auto& p : control_q_) io.pod(*p);
  } else {
    if (!control_q_.empty()) {
      io.fail("restore target NIC has queued control packets");
      return;
    }
    for (std::uint64_t i = 0; i < nq && io.ok(); ++i) {
      Packet flat;
      io.pod(flat);
      control_q_.push_back(PacketPtr::make(flat));
    }
  }
  // Active QP list, as flow ids in round-robin order.
  std::uint64_t ns = senders_.size();
  io.pod(ns);
  if (io.saving()) {
    for (auto* s : senders_) {
      FlowId id = s->spec().id;
      io.pod(id);
    }
  } else {
    senders_.clear();
    for (std::uint64_t i = 0; i < ns && io.ok(); ++i) {
      FlowId id = 0;
      io.pod(id);
      SenderTransport* s = host.sender(id);
      if (s == nullptr) {
        io.fail("active sender missing from restore target");
        return;
      }
      senders_.push_back(s);
    }
  }
  io.pod(rr_);
  io.pod(transmitting_);
  io.pod(paused_);
  io.pod(tx_packets_);
  io.pod(tx_bytes_);
  io.timer(tx_done_);
  io.timer(wakeup_);
}

}  // namespace dcp
