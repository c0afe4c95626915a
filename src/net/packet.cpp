#include "net/packet.h"

#include "sim/rng.h"

namespace dcp {

namespace {

// Both packet representations carry the same 5-tuple; keying on a template
// keeps the two overloads bit-identical by construction.
template <typename P>
std::uint64_t ecmp_key_impl(const P& p) {
  std::uint64_t k = (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
  k = mix64(k ^ (static_cast<std::uint64_t>(p.sport) << 16 | p.dport));
  k = mix64(k ^ p.flow);
  k = mix64(k ^ p.path_id);
  return k;
}

}  // namespace

std::uint64_t ecmp_key(const Packet& p) { return ecmp_key_impl(p); }
std::uint64_t ecmp_key(const PacketHot& p) { return ecmp_key_impl(p); }

}  // namespace dcp
