#include "sim/snapshot.h"

namespace dcp {

std::vector<std::uint8_t> SnapshotImage::encode() const {
  std::vector<std::uint8_t> out;
  StateIO io = StateIO::saver(out);
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  io.pod(magic);
  io.pod(version);
  auto* self = const_cast<SnapshotImage*>(this);
  io.pod(self->fingerprint);
  io.pod(self->shards);
  io.pod(self->at);
  io.pod(self->next_seq);
  io.each(self->clocks, [](StateIO& s, SnapshotClock& c) {
    s.pod(c.now);
    s.pod(c.events);
    s.pod(c.cur_time);
    s.pod(c.cur_seq);
  });
  io.vec(self->state);
  return out;
}

bool SnapshotImage::decode(const std::vector<std::uint8_t>& bytes, SnapshotImage& out) {
  StateIO io = StateIO::loader(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  io.pod(magic);
  io.pod(version);
  if (!io.ok() || magic != kMagic || version != kVersion) return false;
  io.pod(out.fingerprint);
  io.pod(out.shards);
  io.pod(out.at);
  io.pod(out.next_seq);
  io.each(out.clocks, [](StateIO& s, SnapshotClock& c) {
    s.pod(c.now);
    s.pod(c.events);
    s.pod(c.cur_time);
    s.pod(c.cur_seq);
  });
  io.vec(out.state);
  return io.ok() && io.bytes_consumed() == bytes.size();
}

}  // namespace dcp
