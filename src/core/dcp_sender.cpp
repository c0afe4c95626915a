#include <algorithm>

#include "sim/snapshot.h"

#include "core/dcp_transport.h"
#include "host/host.h"

namespace dcp {

DcpSender::DcpSender(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
    : SenderTransport(sim, host, spec, cfg),
      layout_(spec.bytes, spec.msg_bytes),
      sretry_(layout_.num_msgs, 0) {}

Packet DcpSender::build_packet(std::uint32_t psn, bool retransmit, std::uint8_t retry_no) {
  Packet p = make_data_packet(psn, dcp_data_header_bytes(spec_.op));
  p.tag = DcpTag::kData;
  const std::uint32_t msn = layout_.msn_of_psn(psn);
  p.msn = msn;
  p.ssn = msn;  // posting order mirrors MSN for our message streams
  p.retry_no = retry_no;
  p.is_retransmit = retransmit;
  p.has_reth = spec_.op != RdmaOp::kSend;
  p.remote_addr = static_cast<std::uint64_t>(psn) * kMtuPayload;
  p.last_of_msg = (psn + 1 == layout_.msg_start_psn(msn) + layout_.msg_pkts(msn));
  return p;
}

std::uint64_t DcpSender::inflight_bytes_estimate() const {
  const std::uint64_t sent = stats_.data_packets_sent;
  const std::uint64_t accounted = rcnt_ + ho_total_ + flushed_;
  const std::uint64_t inflight_pkts = sent > accounted ? sent - accounted : 0;
  return inflight_pkts * kMtuPayload;
}

bool DcpSender::protocol_has_packet() {
  if (done()) return false;
  // Prune retransmission entries for messages acknowledged since they were
  // queued (in hardware: a QPC comparison during WQE processing).
  while (!rq_.staging_empty() && rq_.peek_staged().msn < una_msn_) {
    rq_.pop_staged();
    dstats_.stale_ho++;
  }
  if (rq_.staging_empty() && !rq_.host_empty()) start_fetch();
  while (!timeout_retx_.empty() && layout_.msn_of_psn(timeout_retx_.front()) < una_msn_) {
    timeout_retx_.pop_front();
  }
  // The available window (awin) gates retransmissions too (§4.3: the fetch
  // is bounded by awin/MTU) — otherwise trim->HO->retransmit loops blast at
  // line rate regardless of congestion.
  if (inflight_bytes_estimate() >= cc_->window_bytes()) return false;
  if (!rq_.staging_empty() || !timeout_retx_.empty()) return true;
  if (snd_nxt_ >= layout_.total_pkts) return false;
  // Message window: at most kDcpOutstandingMsgs messages in flight (the
  // receiver tracks exactly that many counters).
  return layout_.msn_of_psn(snd_nxt_) < una_msn_ + kDcpOutstandingMsgs;
}

Packet DcpSender::protocol_next_packet() {
  // Transmitting is activity: the coarse timer watches for *stalls*, not
  // for slow fair-shared progress through a large message.
  last_progress_ = sim_.now();
  // Priority 1: HO-triggered precise retransmissions (already fetched).
  if (!rq_.staging_empty()) {
    RetransQ::Entry e = rq_.pop_staged();
    if (rq_.staging_empty() && !rq_.host_empty()) start_fetch();
    dstats_.ho_triggered_retx++;
    return build_packet(e.psn, /*retransmit=*/true, retry_of(e.msn));
  }
  // Priority 2: coarse-timeout retransmissions.
  if (!timeout_retx_.empty()) {
    const std::uint32_t psn = timeout_retx_.front();
    timeout_retx_.pop_front();
    dstats_.timeout_retx_packets++;
    return build_packet(psn, /*retransmit=*/true, retry_of(layout_.msn_of_psn(psn)));
  }
  // Priority 3: new data.
  const std::uint32_t psn = snd_nxt_++;
  return build_packet(psn, /*retransmit=*/false, retry_of(layout_.msn_of_psn(psn)));
}

void DcpSender::start_fetch() {
  if (fetch_in_flight_ || rq_.host_empty()) return;
  fetch_in_flight_ = true;
  // Batch size: min(16, len, awin/MTU) — paper §4.3 step 2.
  std::uint64_t by_window = cc_->window_bytes() == CongestionControl::kNoWindowCap
                                ? cfg_.retrans_batch
                                : std::max<std::uint64_t>(1, cc_->window_bytes() / kMtuPayload);
  fetch_batch_ = static_cast<std::size_t>(
      std::min<std::uint64_t>({cfg_.retrans_batch, rq_.len(), by_window}));
  // Deadline-class: armed once per fetch, always from idle, so the (t,seq)
  // key is identical to a main-heap arm — but the entry parks off the
  // packet heap for the whole PCIe round trip.
  fetch_done_.arm_deadline(cfg_.pcie_rtt);
}

void DcpSender::on_fetch_done() {
  fetch_in_flight_ = false;
  // Drop entries for messages that completed while the fetch was in
  // flight (checked against the QPC, costs nothing extra).
  rq_.fetch_to_staging(fetch_batch_);
  dstats_.pcie_fetches++;
  kick_nic();
}

void DcpSender::arm_msg_timer() {
  if (done()) return;
  if (msg_timer_.pending()) return;  // periodic check already armed
  if (last_progress_ == 0) last_progress_ = sim_.now();
  msg_timer_.arm_deadline(cfg_.dcp_msg_timeout);
}

void DcpSender::on_msg_timeout() {
  if (done()) return;
  const Time quiet_needed = cfg_.dcp_msg_timeout * timeout_backoff_;
  const bool quiet = sim_.now() - last_progress_ >= quiet_needed;
  const bool una_msg_sent = snd_nxt_ > layout_.msg_start_psn(una_msn_);
  const bool recovery_in_flight =
      !timeout_retx_.empty() || !rq_.staging_empty() || !rq_.host_empty();
  if (!quiet || !una_msg_sent || recovery_in_flight) {
    arm_msg_timer();
    return;
  }
  stats_.timeouts++;
  cc_->on_timeout();
  // Write off everything outstanding: whatever is unaccounted was lost
  // silently (the only way to reach a quiet timeout with credit missing).
  const std::uint64_t accounted = rcnt_ + ho_total_ + flushed_;
  if (stats_.data_packets_sent > accounted) {
    flushed_ += stats_.data_packets_sent - accounted;
  }
  // Retransmit every packet of the unaMSN-th message with a bumped
  // sRetryNo; the receiver restarts its counter for the new round (§4.5).
  const std::uint32_t msn = una_msn_;
  if (sretry_[msn] < 255) sretry_[msn]++;
  const std::uint32_t start = layout_.msg_start_psn(msn);
  const std::uint32_t count = layout_.msg_pkts(msn);
  const std::uint32_t sent_end = std::min(snd_nxt_, start + count);
  for (std::uint32_t p = start; p < sent_end; ++p) timeout_retx_.push_back(p);
  timeout_backoff_ = std::min(timeout_backoff_ * 2, 8);
  last_progress_ = sim_.now();  // the new round counts as activity
  arm_msg_timer();
  kick_nic();
}

void DcpSender::on_packet(Packet pkt) {
  switch (pkt.type) {
    case PktType::kCnp:
      stats_.cnp_received++;
      cc_->on_cnp();
      return;

    case PktType::kHeaderOnly: {
      // Bounced from the receiver: precise loss notification.  An arriving
      // HO also proves the lossless control plane is alive and recovery is
      // progressing, so the coarse fallback stays quiet (§4.5 — it only
      // needs to fire when the control plane is *violated*).
      stats_.ho_received++;
      ho_total_++;  // a trimmed transmission is accounted: credit returns
      last_progress_ = sim_.now();
      timeout_backoff_ = 1;
      const std::uint32_t msn = pkt.msn;
      if (msn < una_msn_) {
        dstats_.stale_ho++;  // message already acknowledged; nothing to do
        kick_nic();
        return;
      }
      rq_.push(RetransQ::Entry{msn, pkt.psn});
      if (rq_.staging_empty()) start_fetch();
      kick_nic();
      return;
    }

    case PktType::kAck: {
      if (pkt.echo_ts >= 0) cc_->on_rtt_sample(sim_.now() - pkt.echo_ts);
      // Credit update: cumulative receiver arrival count (flow control).
      if (pkt.ack_psn > rcnt_) {
        rcnt_ = pkt.ack_psn;
        last_progress_ = sim_.now();
        kick_nic();
      }
      if (pkt.emsn > una_msn_) {
        const std::uint32_t prev = una_msn_;
        una_msn_ = pkt.emsn;
        const std::uint64_t newly = static_cast<std::uint64_t>(layout_.msg_start_psn(una_msn_) -
                                                               layout_.msg_start_psn(prev)) *
                                    kMtuPayload;
        cc_->on_ack(newly);
        // Timeout-round retransmissions of acknowledged messages are moot.
        while (!timeout_retx_.empty() &&
               layout_.msn_of_psn(timeout_retx_.front()) < una_msn_) {
          timeout_retx_.pop_front();
        }
        if (done()) {
          msg_timer_.cancel();
          finish();
          return;
        }
        last_progress_ = sim_.now();  // progress quiets the coarse timer
        timeout_backoff_ = 1;
        kick_nic();
      }
      return;
    }

    default:
      return;
  }
}


void DcpSender::checkpoint_extra(StateIO& io) {
  rq_.checkpoint(io);
  io.pod(fetch_in_flight_);
  io.pod(fetch_batch_);
  io.pod(rcnt_);
  io.pod(ho_total_);
  io.pod(flushed_);
  io.deq(timeout_retx_);
  io.vec(sretry_);
  io.pod(snd_nxt_);
  io.pod(una_msn_);
  io.pod(last_progress_);
  io.pod(timeout_backoff_);
  io.pod(dstats_);
  io.timer(fetch_done_);
  io.timer(msg_timer_);
  if (io.saving() || !io.ok()) return;
  const auto in_flow = [this](const RetransQ::Entry& e) {
    return e.msn < layout_.num_msgs && e.psn < layout_.total_pkts;
  };
  const bool retx_in_flow =
      std::all_of(timeout_retx_.begin(), timeout_retx_.end(),
                  [this](std::uint32_t psn) { return psn < layout_.total_pkts; });
  if (sretry_.size() != layout_.num_msgs || snd_nxt_ > layout_.total_pkts ||
      una_msn_ > layout_.num_msgs || !rq_.all_of(in_flow) || !retx_in_flow) {
    io.fail("dcp sender: window, retry rounds or retransmission entries outside the flow");
  }
}

}  // namespace dcp
