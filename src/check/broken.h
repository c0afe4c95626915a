#pragma once
// Deliberately broken transports: oracle self-test fixtures.
//
// Each "toy" pair is a complete (if naive) stop-and-wait-free protocol —
// the sender streams every packet, the sink accounts unique bytes and ACKs
// once it has the whole flow — so that on a loss-free fabric a run is
// clean except for the one seeded defect, and a toy must trip *exactly*
// its intended invariant.
//
// BrokenDcpFactory is the fuzzer's quarry: a real DcpReceiver wrapped so
// that the first retransmitted data packet also fires a completion — the
// classic duplicate-CQE bug.  Fault-free runs behave identically to stock
// DCP; only a scenario that actually provokes a retransmission exposes it,
// which is exactly what run_fuzz must find and shrink (see --inject-bug).

#include <memory>
#include <vector>

#include "core/dcp_transport.h"
#include "host/transport.h"

namespace dcp {

enum class ToyBug {
  kNone,          // control: the toy protocol itself must pass the oracle
  kPsnRegress,    // re-sends an old PSN flagged as *new* data
  kDupComplete,   // fires the receiver completion twice
  kForgedHo,      // bounces a header-only packet no switch ever trimmed
};

/// Instantiates the toy protocol, seeded with one bug (or none).
class ToyFactory final : public TransportFactory {
 public:
  explicit ToyFactory(ToyBug bug) : bug_(bug) {}
  std::unique_ptr<SenderTransport> make_sender(Simulator& sim, Host& host, const FlowSpec& spec,
                                               const TransportConfig& cfg) override;
  std::unique_ptr<ReceiverTransport> make_receiver(Simulator& sim, Host& host,
                                                   const FlowSpec& spec,
                                                   const TransportConfig& cfg) override;

 private:
  ToyBug bug_;
};

/// Stock DCP with a duplicate-completion defect at the receiver.
class BrokenDcpFactory final : public TransportFactory {
 public:
  std::unique_ptr<SenderTransport> make_sender(Simulator& sim, Host& host, const FlowSpec& spec,
                                               const TransportConfig& cfg) override;
  std::unique_ptr<ReceiverTransport> make_receiver(Simulator& sim, Host& host,
                                                   const FlowSpec& spec,
                                                   const TransportConfig& cfg) override;
};

}  // namespace dcp
