// Diagnostic: finds where a restored world first diverges from the cold
// run.  Runs a warm (restored-at-T) and a cold world in lockstep,
// snapshotting both at each barrier point; on the first mismatched image
// it reports the byte offset and the nearest module label magic, which
// identifies the module whose state drifted.
//
//   ./tools/snapshot_diff [scheme] [T_us] [step_us] [end_us]

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "harness/checkpoint.h"

namespace dcp {
namespace {

struct KnownLabel {
  std::uint32_t magic;
  const char* name;
};

constexpr KnownLabel kLabels[] = {
    {0xC4A17E1, "Channel"},        {0x9047, "Port"},
    {0xD3FC17, "DwrrScheduler"},   {0x51117C4, "Switch"},
    {0xDCC41, "DcqcnRp"},          {0x713E1B, "Timely"},
    {0x5E4D00, "SenderTransport"}, {0x4ECF00, "ReceiverTransport"},
    {0x121C, "RnicScheduler"},     {0x4057, "Host"},
    {0x4E7733, "Network"},         {0xFA1737, "FaultInjector"},
    {0x02AC1E, "InvariantOracle"},
};

bool g_faulted = false;
std::int64_t g_seed = -1;  // >= 0: use generate_fuzz_scenario(seed) instead

FuzzScenario scenario(SchemeKind k) {
  if (g_seed >= 0) return generate_fuzz_scenario(static_cast<std::uint64_t>(g_seed));
  FuzzScenario s;
  s.seed = 42;
  s.scheme = k;
  s.spines = 2;
  s.leaves = 4;
  s.hosts_per_leaf = 2;
  s.max_time = milliseconds(5);
  s.flows = {
      {0, 5, 64 * 1024, 4096, microseconds(5)},
      {2, 7, 24 * 1024, 0, microseconds(20)},
      {6, 1, 96 * 1024, 16384, microseconds(40)},
      {4, 3, 8 * 1024, 4096, microseconds(120)},
  };
  if (g_faulted) {
    auto add = [&](FaultKind kind, double at_us, double dur_us, double rate) {
      FaultAction a;
      a.kind = kind;
      a.at = microseconds(at_us);
      a.duration = microseconds(dur_us);
      a.rate = rate;
      s.faults.actions.push_back(a);
    };
    add(FaultKind::kDrop, 30, 120, 0.05);
    add(FaultKind::kHoLoss, 50, 80, 0.3);
    add(FaultKind::kCorrupt, 80, 60, 0.02);
    FaultAction flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.at = microseconds(70);
    flap.duration = microseconds(50);
    flap.drop_in_flight = true;
    flap.sw = 2;
    s.faults.actions.push_back(flap);
    FaultAction shrink;
    shrink.kind = FaultKind::kBufferShrink;
    shrink.at = microseconds(45);
    shrink.duration = microseconds(150);
    shrink.frac = 0.3;
    s.faults.actions.push_back(shrink);
  }
  return s;
}

const char* label_before(const std::vector<std::uint8_t>& state, std::size_t off) {
  const char* best = "<none>";
  std::size_t best_at = 0;
  for (std::size_t i = 0; i + 4 <= state.size() && i <= off; ++i) {
    std::uint32_t v;
    std::memcpy(&v, state.data() + i, 4);
    for (const KnownLabel& l : kLabels) {
      if (v == l.magic && i >= best_at) {
        best = l.name;
        best_at = i;
      }
    }
  }
  return best;
}

void diff_images(const SnapshotImage& warm, const SnapshotImage& cold) {
  if (warm.state.size() != cold.state.size()) {
    std::printf("  state size differs: warm %zu vs cold %zu bytes\n",
                warm.state.size(), cold.state.size());
  }
  const std::size_t n = std::min(warm.state.size(), cold.state.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (warm.state[i] != cold.state[i]) {
      std::printf("  first state diff at byte %zu (of %zu), inside module %s\n", i, n,
                  label_before(cold.state, i));
      std::printf("  warm:");
      for (std::size_t j = i; j < std::min(i + 32, n); ++j)
        std::printf(" %02x", warm.state[j]);
      std::printf("\n  cold:");
      for (std::size_t j = i; j < std::min(i + 32, n); ++j)
        std::printf(" %02x", cold.state[j]);
      std::printf("\n");
      return;
    }
  }
  std::printf("  state bytes identical; header-only divergence\n");
}

int run(SchemeKind k, double t_us, double step_us, double end_us) {
  const WorldSpec ws = fuzz_world_spec(scenario(k), FuzzOptions{});
  const Time T = microseconds(t_us);
  std::string err;

  // Reference: an uninterrupted run_until_done with no run_to slicing.
  WorldDigest pure;
  {
    SimWorld p(ws);
    p.run_until_done();
    pure = p.digest();
    std::printf("pure cold run: digest %016" PRIx64 " ev %" PRIu64 "\n", pure.value,
                pure.events);
  }

  SimWorld a(ws);
  a.run_to(T);
  SnapshotImage img;
  if (!a.save(img, &err)) {
    std::printf("save at T failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("snapshot at %.1fus: %zu state bytes, %" PRIu64 " events\n", t_us,
              img.state.size(), a.events_processed());

  SimWorld warm(ws);
  if (!warm.restore(img, &err)) {
    std::printf("restore failed: %s\n", err.c_str());
    return 1;
  }
  SimWorld cold(ws);

  // Immediately compare the restored world against the saved world: a
  // re-save must be byte-identical before we even run.
  SnapshotImage resaved;
  if (!warm.save(resaved, &err)) {
    std::printf("re-save failed: %s\n", err.c_str());
    return 1;
  }
  if (!(resaved == img)) {
    std::printf("re-save differs from image BEFORE running:\n");
    diff_images(resaved, img);
    return 1;
  }
  std::printf("re-save at T byte-identical\n");

  for (double t2 = t_us + step_us; t2 <= end_us; t2 += step_us) {
    const Time T2 = microseconds(t2);
    warm.run_to(T2);
    cold.run_to(T2);
    SnapshotImage iw, ic;
    if (!warm.save(iw, &err) || !cold.save(ic, &err)) {
      std::printf("save at %.1fus failed: %s\n", t2, err.c_str());
      return 1;
    }
    if (iw == ic && warm.events_processed() == cold.events_processed()) continue;
    std::printf("DIVERGED by %.1fus: warm %" PRIu64 " events, cold %" PRIu64 "\n", t2,
                warm.events_processed(), cold.events_processed());
    for (int s = 0; s < (int)iw.clocks.size() && s < (int)ic.clocks.size(); ++s) {
      std::printf("  shard %d: warm now=%" PRId64 " ev=%" PRIu64 " cur=(%" PRId64
                  ",%" PRIu64 ")  cold now=%" PRId64 " ev=%" PRIu64 " cur=(%" PRId64
                  ",%" PRIu64 ")\n",
                  s, iw.clocks[s].now, iw.clocks[s].events, iw.clocks[s].cur_time,
                  iw.clocks[s].cur_seq, ic.clocks[s].now, ic.clocks[s].events,
                  ic.clocks[s].cur_time, ic.clocks[s].cur_seq);
    }
    std::printf("  next_seq: warm %" PRIu64 " cold %" PRIu64 "\n", iw.next_seq,
                ic.next_seq);
    diff_images(iw, ic);
    return 2;
  }
  std::printf("no divergence through %.1fus (warm %" PRIu64 " events, cold %" PRIu64
              ")\n",
              end_us, warm.events_processed(), cold.events_processed());

  // Finish both exactly the way run_fuzz_scenario does and compare.
  warm.run_until_done();
  cold.run_until_done();
  const WorldDigest wd = warm.digest();
  const WorldDigest cd = cold.digest();
  std::printf("run_until_done: warm digest %016" PRIx64 " ev %" PRIu64
              ", cold digest %016" PRIx64 " ev %" PRIu64 " -> %s\n",
              wd.value, wd.events, cd.value, cd.events,
              wd == cd ? "MATCH" : "MISMATCH");
  if (wd == cd) return 0;
  SnapshotImage iw, ic;
  if (warm.save(iw, &err) && cold.save(ic, &err)) diff_images(iw, ic);
  return 2;
}

}  // namespace
}  // namespace dcp

int main(int argc, char** argv) {
  dcp::SchemeKind k = dcp::SchemeKind::kDcp;
  if (argc > 1) {
    if (std::strncmp(argv[1], "seed:", 5) == 0) {
      dcp::g_seed = atoll(argv[1] + 5);
    } else {
      auto parsed = dcp::scheme_from_name(argv[1]);
      if (!parsed) {
        std::fprintf(stderr, "unknown scheme %s\n", argv[1]);
        return 1;
      }
      k = *parsed;
    }
  }
  const double t = argc > 2 ? atof(argv[2]) : 15.0;
  const double step = argc > 3 ? atof(argv[3]) : 5.0;
  const double end = argc > 4 ? atof(argv[4]) : 400.0;
  dcp::g_faulted = argc > 5 && std::string(argv[5]) == "faulted";
  return dcp::run(k, t, step, end);
}
