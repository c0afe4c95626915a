#pragma once
// Deterministic checkpoint/restore for simulations (docs/checkpoint.md).
//
// A snapshot is NOT a memory dump.  It is taken at a barrier-safe point —
// a shard-window barrier under DCP_SHARDS>1, a quiesce/slice boundary
// otherwise — where every pending callback is reconstructible from module
// state, so no closures are ever serialized.  Restore rebuilds the world
// from its spec (topology, schemes, flows — the deterministic setup
// phase), then overlays the saved dynamic state on top: scalar fields are
// copied, persistent timers are re-armed with their exact saved (time,
// sequence) heap keys, and in-flight packets are re-parked in their
// channel's lane or inbox, whose head timer is re-armed with the head's
// saved key.  Because the event order of a run is fully determined by the
// globally unique (t, seq) keys, the resumed run is bit-identical — same
// digest, same events_processed — to the uninterrupted one.
//
// StateIO is the single bidirectional visitor both directions share: every
// module implements ONE `checkpoint(StateIO&)` member that reads like a
// field list, and the same code path serializes and restores.  This keeps
// save and load structurally incapable of drifting apart, and makes
// re-save byte-equality (save(restore(image)) == image) a cheap, powerful
// invariant tests can assert.
//
// An image restores only into a world rebuilt from the spec it was saved
// from, so every saved sequence number is already the restore target's:
// nothing is renumbered on load.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dcp {

/// FNV-1a over 64-bit lanes: the digest primitive snapshots and the golden
/// corpus share.  Order-sensitive, dependency-free, stable across builds.
class Fnv64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Bidirectional state visitor: one `checkpoint(StateIO&)` per module
/// serves both save and load.  All primitives are no-ops after the first
/// failure, so callers check ok() once at the end.
class StateIO {
 public:
  static StateIO saver(std::vector<std::uint8_t>& out) { return StateIO(&out, nullptr); }
  static StateIO loader(const std::vector<std::uint8_t>& in) { return StateIO(nullptr, &in); }

  bool saving() const { return out_ != nullptr; }
  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }
  /// Marks the stream failed (e.g. a transport without snapshot support).
  void fail(std::string msg) {
    if (err_.empty()) err_ = std::move(msg);
  }

  /// Raw trivially-copyable value (integers, enums, flat Packet records).
  /// Saving writes a padding-cleared copy so image bytes are a pure
  /// function of the object's *values* — struct padding holds
  /// indeterminate garbage that would otherwise make two semantically
  /// identical worlds produce different images.
  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!ok()) return;
    if (saving()) {
#if defined(__GNUC__) || defined(__clang__)
      T tmp = v;
      __builtin_clear_padding(&tmp);
      const auto* p = reinterpret_cast<const std::uint8_t*>(&tmp);
#else
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
#endif
      out_->insert(out_->end(), p, p + sizeof v);
    } else {
      if (pos_ + sizeof v > in_->size()) return fail("state underrun");
      std::memcpy(&v, in_->data() + pos_, sizeof v);
      pos_ += sizeof v;
    }
  }

  void str(std::string& s) {
    std::uint64_t n = s.size();
    pod(n);
    if (!ok()) return;
    if (saving()) {
      out_->insert(out_->end(), s.begin(), s.end());
    } else {
      if (pos_ + n > in_->size()) return fail("state underrun (str)");
      s.assign(reinterpret_cast<const char*>(in_->data() + pos_), n);
      pos_ += n;
    }
  }

  /// Vector of trivially-copyable records, size included.
  template <typename T>
  void vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = v.size();
    pod(n);
    if (!ok()) return;
    if (n == 0) {
      if (!saving()) v.clear();
      return;
    }
    if (saving()) {
      if constexpr (std::has_unique_object_representations_v<T>) {
        const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
        out_->insert(out_->end(), p, p + n * sizeof(T));
      } else {
        for (const T& e : v) {
          T t = e;
          pod(t);  // padding-cleared per element
        }
      }
    } else {
      if (pos_ + n * sizeof(T) > in_->size()) return fail("state underrun (vec)");
      v.resize(n);
      std::memcpy(v.data(), in_->data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
  }

  /// std::vector<bool> (protocol bitmaps): no contiguous storage, so one
  /// byte per bit.  Load re-sizes to the saved size.
  void vbool(std::vector<bool>& v) {
    std::uint64_t n = v.size();
    pod(n);
    if (!ok()) return;
    if (!saving()) v.assign(static_cast<std::size_t>(n), false);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::uint8_t b = v[i] ? 1 : 0;
      pod(b);
      if (!ok()) return;
      if (!saving()) v[i] = b != 0;
    }
  }

  /// Ring of trivially-copyable records in FIFO order, size included.
  template <typename T>
  void ring(Ring<T>& r) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = r.size();
    pod(n);
    if (!ok()) return;
    if (saving()) {
      for (auto& e : r) pod(e);
    } else {
      r.clear();
      for (std::uint64_t i = 0; i < n && ok(); ++i) {
        T e{};
        pod(e);
        r.push_back(e);
      }
    }
  }

  /// Variable-length container of non-trivial elements: size + per-element
  /// visit.  Load resizes, so T must be default-constructible.
  template <typename T, typename Fn>
  void each(std::vector<T>& v, Fn fn) {
    std::uint64_t n = v.size();
    pod(n);
    if (!ok()) return;
    if (!saving()) v.resize(n);
    for (auto& e : v) {
      fn(*this, e);
      if (!ok()) return;
    }
  }

  /// Fixed-shape container (ports, queues): the rebuild must already hold
  /// exactly as many elements as the image recorded.
  template <typename C, typename Fn>
  void fixed(C& v, Fn fn) {
    std::uint64_t n = v.size();
    pod(n);
    if (!ok()) return;
    if (!saving() && n != v.size()) return fail("state shape mismatch");
    for (auto& e : v) {
      fn(*this, e);
      if (!ok()) return;
    }
  }

  /// Structure guard: a magic constant both directions visit.  A load that
  /// desynchronizes fails at the next label, naming the module that drifted.
  void label(std::uint32_t magic) {
    std::uint32_t m = magic;
    pod(m);
    if (!saving() && ok() && m != magic) fail("label mismatch @" + std::to_string(magic));
  }

  /// A persistent timer's heap arm.  Save records the exact parked key
  /// and true deadline; load replaces whatever the rebuild armed with it.
  void timer(Timer& t) {
    EventQueue::TimerArm a = saving() ? t.arm_state() : EventQueue::TimerArm{};
    pod(a.kind);
    pod(a.t);
    pod(a.seq);
    pod(a.deadline);
    if (!saving() && ok()) t.restore_arm(a);
  }

  std::size_t bytes_consumed() const { return pos_; }

 private:
  StateIO(std::vector<std::uint8_t>* out, const std::vector<std::uint8_t>* in)
      : out_(out), in_(in) {}

  std::vector<std::uint8_t>* out_;
  const std::vector<std::uint8_t>* in_;
  std::size_t pos_ = 0;
  std::string err_;
};

/// Per-shard clock record inside an image.
struct SnapshotClock {
  Time now = 0;
  std::uint64_t events = 0;
  Time cur_time = 0;
  std::uint64_t cur_seq = 0;
};

/// A versioned, self-describing simulation checkpoint.  `fingerprint`
/// hashes the world spec the image was saved from; restore refuses a
/// target built from a spec whose fingerprint differs.
struct SnapshotImage {
  static constexpr std::uint32_t kMagic = 0x44435053;  // "DCPS"
  static constexpr std::uint32_t kVersion = 8;

  std::uint64_t fingerprint = 0;
  std::uint32_t shards = 1;
  Time at = 0;  // every event with t < at has run; none at t >= at has
  std::uint64_t next_seq = 0;
  std::vector<SnapshotClock> clocks;  // one per shard
  std::vector<std::uint8_t> state;    // module payload (StateIO stream)

  /// Flat byte encoding (repro files, byte-equality checks).
  std::vector<std::uint8_t> encode() const;
  /// Decodes `bytes`; returns false on a magic/version/shape mismatch.
  static bool decode(const std::vector<std::uint8_t>& bytes, SnapshotImage& out);

  bool operator==(const SnapshotImage& o) const {
    return fingerprint == o.fingerprint && shards == o.shards && at == o.at &&
           next_seq == o.next_seq &&
           [&] {
             if (clocks.size() != o.clocks.size()) return false;
             for (std::size_t i = 0; i < clocks.size(); ++i) {
               if (clocks[i].now != o.clocks[i].now || clocks[i].events != o.clocks[i].events ||
                   clocks[i].cur_time != o.clocks[i].cur_time ||
                   clocks[i].cur_seq != o.clocks[i].cur_seq) {
                 return false;
               }
             }
             return true;
           }() &&
           state == o.state;
  }
  bool operator!=(const SnapshotImage& o) const { return !(*this == o); }
};

}  // namespace dcp
