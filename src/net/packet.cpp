#include "net/packet.h"

#include "sim/rng.h"

namespace dcp {

std::uint64_t ecmp_key(const Packet& p) {
  std::uint64_t k = (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
  k = mix64(k ^ (static_cast<std::uint64_t>(p.sport) << 16 | p.dport));
  k = mix64(k ^ p.flow);
  k = mix64(k ^ p.path_id);
  return k;
}

}  // namespace dcp
