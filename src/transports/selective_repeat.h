#pragma once
// The selective-repeat substrate under Timeout, IRN, MP-RDMA, RACK-TLP and
// TcpLite.  The schemes differ in how they detect loss, their window rule
// and their timers; the state a detection acts on lives here once.
//
//   RetxQueue   PSNs marked for resend, popped lowest first (FEC's sender
//               queues wire PSNs in one too).
//   Scoreboard  a RetxQueue plus the acked bitmap and snd_una / snd_nxt.
//   OooReceiver out-of-order placement into a PSN bitmap behind a
//               cumulative ePSN; subclasses build their own ACKs.
//
// Whether a SACK dequeues its PSN is a per-scheme rule, so each sender
// makes that call itself: Timeout never does, RACK-TLP only for a newly
// acked PSN, IRN and MP-RDMA always.

#include <cstdint>
#include <vector>

#include "host/transport.h"

namespace dcp {

class StateIO;

class RetxQueue {
 public:
  explicit RetxQueue(std::uint32_t psns) : pending_(psns, false), scan_(psns) {}

  bool empty() const { return count_ == 0; }
  bool contains(std::uint32_t psn) const { return pending_[psn]; }
  /// Queues `psn`; false when it was already queued.
  bool push(std::uint32_t psn);
  /// Dequeues the lowest queued PSN; the queue must not be empty.
  std::uint32_t pop();
  /// Drops `psn` if it is queued.
  void remove(std::uint32_t psn);
  void clear() { while (!empty()) pop(); }
  /// Saves the bitmap; load rebuilds the count and the cursor from it.
  void checkpoint(StateIO& io);

 private:
  std::vector<bool> pending_;
  std::uint32_t count_ = 0;  // set bits in pending_
  std::uint32_t scan_;       // no queued PSN lies below it
};

/// Sender-side selective-repeat state: which PSNs are acked, which are
/// queued for retransmission, and the snd_una / snd_nxt window edges.
class Scoreboard {
 public:
  explicit Scoreboard(std::uint32_t psns) : acked_(psns, false), retx_(psns) {}

  std::uint32_t una() const { return una_; }
  std::uint32_t nxt() const { return nxt_; }
  std::uint32_t outstanding() const { return nxt_ - una_; }
  bool done() const { return una_ >= size(); }
  bool acked(std::uint32_t psn) const { return acked_[psn]; }
  RetxQueue& retx() { return retx_; }

  /// A queued retransmission is always sendable; new data while PSNs
  /// remain unsent and the scheme's window is open.
  bool has_packet(bool window_open) const {
    return !done() && (!retx_.empty() || (nxt_ < size() && window_open));
  }
  struct Next {
    std::uint32_t psn;
    bool retransmit;
  };
  /// The lowest queued retransmission, else the next new PSN.
  Next next_psn() {
    if (!retx_.empty()) return {retx_.pop(), true};
    return {nxt_++, false};
  }

  /// Queues `psn` unless it is acked; true when newly queued.
  bool mark_lost(std::uint32_t psn) { return !acked_[psn] && retx_.push(psn); }
  /// Queues every unacked PSN in [snd_una, snd_nxt) (the RTO re-mark).
  void mark_outstanding_lost();
  /// Marks [snd_una, ack_psn) acked, calling on_new(psn) for each PSN
  /// that was not acked before.  snd_una moves only in advance().
  template <typename F>
  void cumulative_ack(std::uint32_t ack_psn, F&& on_new) {
    for (std::uint32_t p = una_; p < ack_psn && p < size(); ++p) {
      if (!acked_[p]) {
        acked_[p] = true;
        on_new(p);
      }
    }
  }
  void cumulative_ack(std::uint32_t ack_psn) {
    cumulative_ack(ack_psn, [](std::uint32_t) {});
  }
  /// Selectively acks one in-range PSN; true when it was not acked before.
  bool sack(std::uint32_t psn) {
    if (acked_[psn]) return false;
    acked_[psn] = true;
    return true;
  }
  /// Slides snd_una over the acked prefix; returns how many PSNs it passed.
  std::uint32_t advance();

  void checkpoint(StateIO& io);

 private:
  std::uint32_t size() const { return static_cast<std::uint32_t>(acked_.size()); }

  std::vector<bool> acked_;
  RetxQueue retx_;
  std::uint32_t una_ = 0;  // oldest unacked PSN
  std::uint32_t nxt_ = 0;  // next new PSN to send
};

/// Out-of-order-accepting receiver with cumulative ACKs + per-packet echo
/// (ack_psn = ePSN, sack_psn = this packet) so the sender can clear state.
/// It is the Timeout and RACK-TLP receiver as is; IRN, MP-RDMA and TcpLite
/// reuse its placement and build their own ACKs.
class OooReceiver : public ReceiverTransport {
 public:
  OooReceiver(Simulator& sim, Host& host, FlowSpec spec, TransportConfig cfg)
      : ReceiverTransport(sim, host, spec, cfg), received_(total_packets(), false) {}

  void on_packet(Packet pkt) override;
  bool complete() const override { return received_count_ >= total_packets(); }

 protected:
  /// Counts a data arrival and answers a CE mark with a paced CNP; true
  /// when `pkt` is a data packet with an in-range PSN to place.
  bool admit(const Packet& pkt);
  /// Places an in-range PSN: duplicate / out-of-order / byte accounting,
  /// ePSN advance and completion.
  void place(const Packet& pkt);
  /// Cumulative ePSN plus this packet's PSN, CE and send-time echo.
  void send_sack(const Packet& pkt);
  std::uint32_t expected() const { return expected_; }
  void checkpoint_extra(StateIO& io) override;

 private:
  std::vector<bool> received_;
  std::uint32_t received_count_ = 0;
  std::uint32_t expected_ = 0;  // cumulative ePSN
};

}  // namespace dcp
