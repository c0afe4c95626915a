#pragma once
// Congestion-control interface for sender transports.
//
// DCP deliberately decouples reliability from congestion control (paper
// §3, §4.3): the retransmission machinery works with any CC.  We model CC
// as a rate/window provider the sender consults when pacing packets.

#include <cstdint>
#include <memory>

#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {

class StateIO;

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Current sending rate; senders space packets at wire_bytes / rate.
  virtual Bandwidth rate() const = 0;

  /// Cap on unacknowledged bytes (flow control); kNoWindowCap = unlimited.
  virtual std::uint64_t window_bytes() const = 0;

  virtual void on_ack(std::uint64_t newly_acked_bytes) { (void)newly_acked_bytes; }
  /// RTT sample from an ACK echoing the data packet's transmit timestamp
  /// (consumed by delay-based CCs such as TIMELY).
  virtual void on_rtt_sample(Time rtt) { (void)rtt; }
  virtual void on_cnp() {}
  virtual void on_timeout() {}

  /// Checkpoint hook (sim/snapshot.h): CCs with runtime state (DCQCN,
  /// TIMELY) override; stateless CCs have nothing to save.
  virtual void checkpoint(StateIO& io) { (void)io; }

  static constexpr std::uint64_t kNoWindowCap = UINT64_MAX;
};

/// Uncontrolled: line rate, fixed window (the paper's "BDP-based flow
/// control" used by IRN and by DCP-without-CC).
class StaticWindowCc final : public CongestionControl {
 public:
  StaticWindowCc(Bandwidth line_rate, std::uint64_t window)
      : rate_(line_rate), window_(window) {}
  Bandwidth rate() const override { return rate_; }
  std::uint64_t window_bytes() const override { return window_; }

 private:
  Bandwidth rate_;
  std::uint64_t window_;
};

struct CcConfig {
  enum class Type { kStaticWindow, kDcqcn, kTimely } type = Type::kStaticWindow;
  Bandwidth line_rate = Bandwidth::gbps(100);
  std::uint64_t window_bytes = 150 * 1024;  // ~BDP for 100G * 12us
};

/// Builds a CC instance; DCQCN needs the simulator for its timers.
std::unique_ptr<CongestionControl> make_cc(Simulator& sim, const CcConfig& cfg);

}  // namespace dcp
