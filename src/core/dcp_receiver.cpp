#include "check/observer.h"

#include "sim/snapshot.h"
#include "core/dcp_transport.h"
#include "host/host.h"

namespace dcp {

// ---------------------------------------------------------------------------
// DcpReceiverBase: the datapath both trackers share
// ---------------------------------------------------------------------------

DcpReceiverBase::DcpReceiverBase(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
    : ReceiverTransport(sim, host, spec, cfg),
      layout_(spec.bytes, spec.msg_bytes) {}

void DcpReceiverBase::bounce_header_only(const Packet& pkt) {
  // §4.1 step 2: swap source/destination (IP + QPN) and forward the HO
  // packet to the sender.  It rides the control queue end to end.
  Packet ho = make_control(PktType::kHeaderOnly, HeaderSizes::kDcpHeaderOnly);
  ho.tag = DcpTag::kHeaderOnly;
  ho.queue_class = QueueClass::kControl;
  ho.psn = pkt.psn;
  ho.msn = pkt.msn;
  ho.retry_no = pkt.retry_no;
  dstats_.ho_bounced++;
  stats_.ho_received++;
  send_control(std::move(ho));
}

void DcpReceiverBase::send_emsn_ack(std::uint32_t emsn) {
  Packet ack = make_control(PktType::kAck, HeaderSizes::kDcpAck);
  ack.tag = DcpTag::kAck;
  ack.emsn = emsn;
  // Cumulative arrival count: the sender's flow-control credit (awin).
  ack.ack_psn = static_cast<std::uint32_t>(stats_.data_packets);
  ack.echo_ts = last_echo_;  // RTT echo for delay-based CC (TIMELY)
  send_control(std::move(ack));
}

void DcpReceiverBase::arm_ack_keepalive() {
  if (keepalive_.pending()) return;  // periodic chain already live
  keepalive_.arm_deadline(ka_backoff_);
}

void DcpReceiverBase::on_keepalive() {
  const std::uint32_t emsn_now = emsn();
  const bool done = emsn_now >= layout_.num_msgs;
  if (done && post_complete_kas_ >= 12) return;  // give up; sender RTO owns it
  if (sim_.now() - last_activity_ >= ka_backoff_) {
    send_emsn_ack(emsn_now);
    if (done) ++post_complete_kas_;
    ka_backoff_ = std::min<Time>(2 * ka_backoff_, microseconds(200));
  }
  arm_ack_keepalive();
}

bool DcpReceiverBase::admit(const Packet& pkt, std::uint32_t emsn) {
  if (pkt.type == PktType::kHeaderOnly) {
    bounce_header_only(pkt);
    return false;
  }
  if (pkt.type != PktType::kData) return false;
  stats_.data_packets++;
  last_activity_ = sim_.now();
  last_echo_ = pkt.sent_at;
  ka_backoff_ = microseconds(50);
  if (emsn < layout_.num_msgs) post_complete_kas_ = 0;
  // Every data arrival leaves the keepalive pending, so the ACKs the
  // arrival sends need not arm it.
  arm_ack_keepalive();

  // Credit ACK every 8 arrivals so the sender's awin stays clocked even
  // while messages are incomplete (a dropped credit ACK is healed by the
  // next one — the counter is cumulative).
  if (stats_.data_packets % 8 == 0) send_emsn_ack(emsn);

  if (ecn_enabled_ && pkt.ecn_ce && cnp_.should_send(sim_.now())) {
    Packet cnp = make_control(PktType::kCnp, HeaderSizes::kCnp);
    cnp.tag = DcpTag::kAck;  // CNPs share the ACK class of the DCP tag space
    send_control(std::move(cnp));
  }
  return true;
}

void DcpReceiverBase::complete_messages(std::uint32_t from, std::uint32_t to) {
  // Messages complete in eMSN order (CQEs for the application).  Placement
  // is idempotent across timeout rounds, so unique bytes are accounted at
  // message completion rather than per packet.
  for (std::uint32_t m = from; m < to; ++m) {
    stats_.bytes_received += layout_.msg_bytes_of(m);
    if (CheckObserver* ob = sim_.check_observer()) ob->on_msg_complete(spec_.id, m);
  }
  send_emsn_ack(to);
  if (to >= layout_.num_msgs) mark_complete();
}

void DcpReceiverBase::checkpoint_extra(StateIO& io) {
  io.pod(dstats_);
  io.pod(last_activity_);
  io.pod(ka_backoff_);
  io.pod(post_complete_kas_);
  io.pod(last_echo_);
  io.timer(keepalive_);
}

// ---------------------------------------------------------------------------
// DcpReceiver: bitmap-free per-message counters (§4.5)
// ---------------------------------------------------------------------------

DcpReceiver::DcpReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
    : DcpReceiverBase(sim, host, spec, cfg),
      tracker_(layout_, kDcpOutstandingMsgs),
      rretry_(kDcpOutstandingMsgs, 0) {}

void DcpReceiver::on_packet(Packet pkt) {
  if (!admit(pkt, tracker_.emsn())) return;

  const std::uint32_t msn = pkt.msn;
  if (msn < tracker_.emsn()) {
    // Stale duplicate of a completed message (e.g. a timeout round raced a
    // lost ACK): re-ACK so the sender can advance.
    stats_.duplicate_packets++;
    send_emsn_ack(tracker_.emsn());
    return;
  }
  if (msn >= tracker_.emsn() + kDcpOutstandingMsgs || msn >= layout_.num_msgs) {
    // Outside the tracking window; the sender's message window makes this
    // unreachable, but drop defensively rather than corrupt counters.
    stats_.duplicate_packets++;
    return;
  }

  // Timeout-round reconciliation (§4.5): the packet's sRetryNo must match
  // the receiver's rRetryNo for this message.
  std::uint8_t& rretry = rretry_[msn % kDcpOutstandingMsgs];
  if (pkt.retry_no > rretry) {
    // A new timeout round: restart counting for this message.
    tracker_.reset_message(msn);
    rretry = pkt.retry_no;
    dstats_.counter_resets++;
  } else if (pkt.retry_no < rretry) {
    // Straggler from a superseded round; it must not be counted.
    dstats_.stale_retry_packets++;
    return;
  }

  // Order-tolerant placement: RETH/MSN in every packet lets the payload go
  // straight to application memory; only the counter is touched.
  const std::uint32_t prev_emsn = tracker_.emsn();
  if (!tracker_.count_packet(msn)) stats_.duplicate_packets++;

  if (tracker_.emsn() > prev_emsn) {
    // Reset the retry slots the window just freed.
    for (std::uint32_t m = prev_emsn; m < tracker_.emsn(); ++m) {
      rretry_[m % kDcpOutstandingMsgs] = 0;
    }
    complete_messages(prev_emsn, tracker_.emsn());
  }
}

void DcpReceiver::checkpoint_extra(StateIO& io) {
  DcpReceiverBase::checkpoint_extra(io);
  tracker_.checkpoint(io);
  io.vec(rretry_);
  if (io.saving() || !io.ok()) return;
  if (rretry_.size() != kDcpOutstandingMsgs) io.fail("dcp receiver: rRetryNo ring size mismatch");
}

// ---------------------------------------------------------------------------
// DcpBitmapReceiver: per-packet bitmap (§4.5 orthogonality variant)
// ---------------------------------------------------------------------------

DcpBitmapReceiver::DcpBitmapReceiver(Simulator& sim, Host& host, FlowSpec spec,
                                     TransportConfig cfg)
    : DcpReceiverBase(sim, host, spec, cfg), received_(layout_.total_pkts, false) {}

void DcpBitmapReceiver::on_packet(Packet pkt) {
  if (!admit(pkt, emsn_)) return;
  if (pkt.psn >= layout_.total_pkts) return;

  // The bitmap makes duplicates (timeout rounds, races) naturally
  // idempotent — no sRetryNo reconciliation needed.
  if (received_[pkt.psn]) {
    stats_.duplicate_packets++;
    send_emsn_ack(emsn_);  // re-ACK so a stalled sender advances
    return;
  }
  received_[pkt.psn] = true;
  if (pkt.psn != scan_) stats_.out_of_order_packets++;

  // Advance the contiguous frontier and with it the eMSN.  (Per-message
  // completeness and contiguous-frontier advancement coincide for eMSN:
  // the eMSN-th message only completes once everything before it has.)
  const std::uint32_t prev_emsn = emsn_;
  while (scan_ < layout_.total_pkts && received_[scan_]) ++scan_;
  while (emsn_ < layout_.num_msgs &&
         scan_ >= layout_.msg_start_psn(emsn_) + layout_.msg_pkts(emsn_)) {
    ++emsn_;
  }
  if (emsn_ > prev_emsn) complete_messages(prev_emsn, emsn_);
}

void DcpBitmapReceiver::checkpoint_extra(StateIO& io) {
  DcpReceiverBase::checkpoint_extra(io);
  io.vbool(received_);
  io.pod(emsn_);
  io.pod(scan_);
  if (io.saving() || !io.ok()) return;
  if (received_.size() != layout_.total_pkts || emsn_ > layout_.num_msgs ||
      scan_ > layout_.total_pkts) {
    io.fail("dcp bitmap receiver: bitmap, eMSN or scan cursor outside the flow");
  }
}

}  // namespace dcp
