#pragma once
// The host-side RNIC transmit scheduler.
//
// Models the QP arbitration of an RNIC's Tx pipeline: a strict-priority
// control stage (ACKs, CNPs, bounced header-only packets) over a
// round-robin data stage that pulls one packet at a time from active QPs
// whose window and pacing allow it.  The wire runs at NIC line rate; a
// QP's own CC rate gates its eligibility, not the wire.

#include <cstdint>
#include <vector>

#include "host/transport.h"
#include "net/channel.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace dcp {

class Host;
class StateIO;

class RnicScheduler {
 public:
  RnicScheduler(Simulator& sim, Bandwidth bw, Time propagation)
      : sim_(sim), channel_(sim, bw, propagation) {}

  Channel& channel() { return channel_; }
  Bandwidth line_rate() const { return channel_.bandwidth(); }

  /// Queues a control packet (strict priority over data).  Pools the
  /// packet immediately; it rides the pooled path from here to the peer.
  void send_control(Packet pkt);

  void register_sender(SenderTransport* s);
  void deregister_sender(SenderTransport* s);

  /// Re-evaluates eligibility; called whenever window/pacing state changes.
  void kick();

  /// PFC PAUSE/RESUME from the attached switch.
  void set_paused(bool paused);

  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }
  std::size_t active_senders() const { return senders_.size(); }

  /// Checkpoint hook (sim/snapshot.h).  The active-QP list is saved as
  /// flow ids and re-resolved through `host` on load (transport pointers
  /// are rebuilt before the NIC state is overlaid); control packets ride
  /// flat records; both timers keep their exact heap keys.
  void checkpoint(StateIO& io, Host& host);

 private:
  void transmit(PacketPtr pkt);

  Simulator& sim_;
  Channel channel_;
  Ring<PacketPtr> control_q_;
  std::vector<SenderTransport*> senders_;
  std::size_t rr_ = 0;
  bool transmitting_ = false;
  bool paused_ = false;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  // Both timers fire at NIC-clock rates, so they keep persistent slots.
  Timer tx_done_{sim_, [this] {
    transmitting_ = false;
    kick();
  }};
  Timer wakeup_{sim_, [this] { kick(); }};
};

}  // namespace dcp
