#pragma once
// Shared-buffer accounting and PFC (IEEE 802.1Qbb) ingress state for a
// switch.
//
// The switch is output-queued, but PFC pauses are generated from *ingress*
// accounting: every buffered packet is charged to the (ingress port, PFC
// class) it arrived on.  When a counter crosses Xoff the switch sends PAUSE
// to that upstream neighbour; when it falls below Xon it sends RESUME.
// Headroom must absorb the in-flight bytes between PAUSE emission and the
// upstream actually stopping — this is what limits PFC's reach to a few km
// (paper Table 1).

#include <cstdint>
#include <vector>

#include "check/observer.h"
#include "net/packet.h"

namespace dcp {

struct PfcConfig {
  bool enabled = false;
  std::uint64_t xoff_bytes = 256 * 1024;  // pause threshold per (port, class)
  std::uint64_t xon_bytes = 224 * 1024;   // resume threshold
};

class SharedBuffer {
 public:
  explicit SharedBuffer(std::uint64_t capacity_bytes, std::uint32_t num_ports,
                        PfcConfig pfc = {})
      : capacity_(capacity_bytes), pfc_(pfc), ingress_bytes_(num_ports) {}

  /// True if `bytes` more can be buffered.
  bool has_room(std::uint64_t bytes) const { return used_ + bytes <= capacity_; }

  /// Charges a buffered packet against the shared pool and its ingress
  /// accounting.  Returns false (and charges nothing) when full.  Inline:
  /// this fires once per switch hop, the hottest accounting pair in the
  /// datapath.
  bool alloc(std::uint32_t in_port, std::uint8_t pfc_class, std::uint64_t bytes) {
    if (!has_room(bytes)) return false;
    used_ += bytes;
    if (used_ > max_used_) max_used_ = used_;
    if (in_port < ingress_bytes_.size()) ingress_bytes_[in_port][pfc_class] += bytes;
    if (check_shadow_ != nullptr &&
        check_shadow_->on_alloc(in_port, pfc_class, bytes, used_) != ShadowFail::kNone) {
      check_observer_->on_buffer_alloc(this, in_port, pfc_class, bytes, used_);
    }
    return true;
  }

  /// Releases a previously charged packet.
  void release(std::uint32_t in_port, std::uint8_t pfc_class, std::uint64_t bytes) {
    used_ -= bytes;
    if (in_port < ingress_bytes_.size()) ingress_bytes_[in_port][pfc_class] -= bytes;
    if (check_shadow_ != nullptr &&
        check_shadow_->on_release(in_port, pfc_class, bytes, used_) != ShadowFail::kNone) {
      check_observer_->on_buffer_release(this, in_port, pfc_class, bytes, used_);
    }
  }

  std::uint64_t used() const { return used_; }
  std::uint64_t capacity() const { return capacity_; }

  /// Resizes the shared pool (fault injection: buffer shrink/restore).
  /// Shrinking below used() is legal: nothing is evicted, but alloc() fails
  /// until the overshoot drains.
  void set_capacity(std::uint64_t bytes) { capacity_ = bytes; }
  std::uint64_t max_used() const { return max_used_; }
  std::uint64_t ingress_bytes(std::uint32_t port, std::uint8_t cls) const {
    return ingress_bytes_[port][cls];
  }

  /// Grows the ingress accounting table (ports can be added after the
  /// buffer is constructed).
  void ensure_ports(std::uint32_t n) {
    if (ingress_bytes_.size() < n) ingress_bytes_.resize(n);
  }

  const PfcConfig& pfc() const { return pfc_; }

  /// Arms conservation checking (see check/observer.h); both null
  /// disarms.  The buffer has no Simulator reference, so unlike the other
  /// hook sites the oracle installs itself here directly.  Each
  /// alloc/release replays the accounting inline in `shadow` and the
  /// observer hears only about divergences (alloc/release fire per switch
  /// hop — the hottest hook pair in the armed path).
  void set_check_observer(CheckObserver* ob, BufferShadow* shadow) {
    check_observer_ = ob;
    check_shadow_ = shadow;
  }
  BufferShadow* check_shadow() const { return check_shadow_; }

  /// PFC decision points: after alloc, should the (port, class) be paused?
  bool should_pause(std::uint32_t port, std::uint8_t cls) const {
    return pfc_.enabled && ingress_bytes_[port][cls] > pfc_.xoff_bytes;
  }
  bool should_resume(std::uint32_t port, std::uint8_t cls) const {
    return pfc_.enabled && ingress_bytes_[port][cls] < pfc_.xon_bytes;
  }

  /// Checkpoint hook (sim/snapshot.h): occupancy, high-water mark, the
  /// (possibly fault-resized) capacity and per-port ingress accounting.
  /// The observer/shadow pointers are re-armed by the oracle's restore.
  template <typename IO>
  void checkpoint(IO& io) {
    io.pod(capacity_);
    io.pod(used_);
    io.pod(max_used_);
    io.vec(ingress_bytes_);
  }

 private:
  struct PerPort {
    std::uint64_t cls_bytes[kNumQueueClasses] = {};
    std::uint64_t& operator[](std::uint8_t c) { return cls_bytes[c]; }
    std::uint64_t operator[](std::uint8_t c) const { return cls_bytes[c]; }
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t max_used_ = 0;
  PfcConfig pfc_;
  std::vector<PerPort> ingress_bytes_;
  CheckObserver* check_observer_ = nullptr;
  BufferShadow* check_shadow_ = nullptr;
};

}  // namespace dcp
