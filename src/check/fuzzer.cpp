#include "check/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "harness/config.h"
#include "sim/rng.h"

namespace dcp {

namespace {

// Substream tags: one independent stream per scenario aspect, so e.g. a
// change to the fault generator never shifts the workload draw of a seed.
constexpr std::uint64_t kTagScheme = 0x5c11e3e;
constexpr std::uint64_t kTagTopo = 0x70b0;
constexpr std::uint64_t kTagFlows = 0xf10a5;
constexpr std::uint64_t kTagFaults = 0xfa0175;
// Fault-injection seed for the run itself (probability draws on links).
constexpr std::uint64_t kTagInject = 0xfa5eed;

}  // namespace

WorldSpec fuzz_spec(std::uint64_t seed) {
  WorldSpec s;
  s.seed = seed;  // provenance and the injector seed; the run draws nothing else from it
  s.injector_seed = mix64(seed ^ kTagInject);
  s.oracle = true;
  s.max_time = milliseconds(50);
  return s;
}

WorldSpec generate_fuzz_scenario(std::uint64_t seed) {
  WorldSpec s = fuzz_spec(seed);

  // Scheme: every scheme appears, DCP weighted up — it is the protocol
  // under test, and the invariants with the most teeth (HO conservation,
  // bounded tracking, retry escalation) only arm on its wire format.
  {
    Rng r = Rng::substream(seed, kTagScheme);
    static constexpr SchemeKind kPool[] = {
        SchemeKind::kDcp,     SchemeKind::kDcp, SchemeKind::kDcp,
        SchemeKind::kPfc,     SchemeKind::kIrn, SchemeKind::kIrnEcmp,
        SchemeKind::kMpRdma,  SchemeKind::kCx5, SchemeKind::kTimeout,
        SchemeKind::kRackTlp, SchemeKind::kTcp, SchemeKind::kFec};
    s.scheme = kPool[r.pick_index(std::size(kPool))];
  }

  {
    Rng r = Rng::substream(seed, kTagTopo);
    s.clos.spines = static_cast<int>(r.uniform_int(1, 3));
    s.clos.leaves = static_cast<int>(r.uniform_int(2, 3));
    s.clos.hosts_per_leaf = static_cast<int>(r.uniform_int(1, 3));
  }

  {
    Rng r = Rng::substream(seed, kTagFlows);
    const int hosts = s.num_hosts();
    const int n = static_cast<int>(r.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      WorldFlow f;
      f.src = static_cast<int>(r.pick_index(static_cast<std::size_t>(hosts)));
      f.dst = static_cast<int>(r.pick_index(static_cast<std::size_t>(hosts - 1)));
      if (f.dst >= f.src) f.dst++;  // loopback flows are not modeled
      // Log-uniform flow sizes: 2 KB .. 300 KB.
      f.bytes = static_cast<std::uint64_t>(std::exp(r.uniform(std::log(2e3), std::log(3e5))));
      static constexpr std::uint64_t kMsg[] = {0, 4096, 16384, 65536};
      f.msg_bytes = kMsg[r.pick_index(std::size(kMsg))];
      f.start = microseconds(r.uniform(0.0, 300.0));
      s.flows.push_back(f);
    }
  }

  {
    Rng r = Rng::substream(seed, kTagFaults);
    // Probabilities quantized to 6 decimals, which keeps repro text short;
    // the goldens pin the quantized draws.
    const auto q = [](double x) { return std::round(x * 1e6) / 1e6; };
    const int n = static_cast<int>(r.uniform_int(0, 6));
    const std::uint32_t num_sw = static_cast<std::uint32_t>(s.clos.spines + s.clos.leaves);
    for (int i = 0; i < n; ++i) {
      FaultAction a;
      static constexpr FaultKind kKinds[] = {FaultKind::kLinkFlap,     FaultKind::kDrop,
                                             FaultKind::kCorrupt,      FaultKind::kHoLoss,
                                             FaultKind::kBufferShrink, FaultKind::kBlackhole};
      a.kind = kKinds[r.pick_index(std::size(kKinds))];
      a.at = microseconds(r.uniform(0.0, 600.0));
      a.sw = r.chance(0.25) ? FaultAction::kAll
                            : static_cast<std::uint32_t>(r.pick_index(num_sw));
      // Ports beyond a switch's radix are silently ignored by the injector,
      // so a generous range is safe and exercises the fan-out paths.
      a.port = r.chance(0.25) ? FaultAction::kAll
                              : static_cast<std::uint32_t>(r.uniform_int(0, 5));
      switch (a.kind) {
        case FaultKind::kLinkFlap:
        case FaultKind::kBlackhole:
          a.duration = microseconds(r.uniform(20.0, 400.0));
          a.drop_in_flight = a.kind == FaultKind::kLinkFlap && r.chance(0.5);
          break;
        case FaultKind::kDrop:
        case FaultKind::kCorrupt:
          a.rate = q(r.uniform(0.001, 0.2));
          a.duration = r.chance(0.3) ? 0 : microseconds(r.uniform(20.0, 400.0));
          break;
        case FaultKind::kHoLoss:
          a.rate = q(r.uniform(0.05, 0.6));
          a.duration = r.chance(0.3) ? 0 : microseconds(r.uniform(20.0, 400.0));
          break;
        case FaultKind::kBufferShrink:
          a.frac = q(r.uniform(0.05, 0.8));
          a.duration = microseconds(r.uniform(20.0, 400.0));
          break;
      }
      s.faults.actions.push_back(a);
    }
  }
  return s;
}

FuzzVerdict run_fuzz_scenario(const WorldSpec& s) {
  SimWorld w(s);
  w.run_until_done();
  return w.finalize_verdict();
}

WorldSpec shrink_fuzz_scenario(const WorldSpec& s, ShrinkStats* stats, std::size_t max_runs) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st = {};
  st.actions_before = s.faults.actions.size();
  st.flows_before = s.flows.size();

  st.runs++;
  const FuzzVerdict base = run_fuzz_scenario(s);
  if (!base.violated) {
    st.actions_after = st.actions_before;
    st.flows_after = st.flows_before;
    return s;
  }
  // One cold run per candidate, within the run budget.
  const auto reproduces = [&](const WorldSpec& cand) {
    if (st.runs >= max_runs) return false;
    st.runs++;
    const FuzzVerdict v = run_fuzz_scenario(cand);
    return v.violated && v.invariant == base.invariant;
  };
  WorldSpec cur = s;

  // Phase 1: ddmin over fault actions — remove chunks, halving the chunk
  // size whenever a whole pass removes nothing.
  std::size_t chunk = std::max<std::size_t>(1, cur.faults.actions.size() / 2);
  while (!cur.faults.actions.empty()) {
    bool removed = false;
    for (std::size_t i = 0; i < cur.faults.actions.size();) {
      WorldSpec cand = cur;
      auto& acts = cand.faults.actions;
      const std::size_t end = std::min(i + chunk, acts.size());
      acts.erase(acts.begin() + static_cast<std::ptrdiff_t>(i),
                 acts.begin() + static_cast<std::ptrdiff_t>(end));
      if (reproduces(cand)) {
        cur = std::move(cand);
        removed = true;  // the next candidate shifted into slot i
      } else {
        i = end;
      }
    }
    if (!removed && chunk == 1) break;
    if (!removed) chunk = std::max<std::size_t>(1, chunk / 2);
  }

  // Phase 2: drop whole flows (a repro needs at least one).
  for (std::size_t i = 0; cur.flows.size() > 1 && i < cur.flows.size();) {
    WorldSpec cand = cur;
    cand.flows.erase(cand.flows.begin() + static_cast<std::ptrdiff_t>(i));
    if (reproduces(cand)) {
      cur = std::move(cand);
    } else {
      ++i;
    }
  }

  // Phase 3: halve flow and message sizes while the violation survives.
  static constexpr std::pair<std::uint64_t WorldFlow::*, std::uint64_t> kHalvable[] = {
      {&WorldFlow::bytes, 2000}, {&WorldFlow::msg_bytes, 2048}};  // field, smallest halved
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < cur.flows.size(); ++i) {
      for (const auto& [field, smallest] : kHalvable) {
        if (cur.flows[i].*field < smallest) continue;
        WorldSpec cand = cur;
        cand.flows[i].*field /= 2;
        if (reproduces(cand)) {
          cur = std::move(cand);
          changed = true;
        }
      }
    }
  }

  // Phase 4: shorten the schedule.
  while (cur.max_time / 2 >= milliseconds(1)) {
    WorldSpec cand = cur;
    cand.max_time /= 2;
    if (!reproduces(cand)) break;
    cur = std::move(cand);
  }

  st.actions_after = cur.faults.actions.size();
  st.flows_after = cur.flows.size();
  return cur;
}

std::string write_fuzz_repro(const WorldSpec& s, const FuzzVerdict& v) {
  std::string out = "# run_fuzz repro — replay with: run_fuzz --replay <this file>\n";
  out += world_text(s);
  if (v.violated) {
    out += "# verdict: " + v.message + "\n";
    if (!v.trace.empty()) {
      out += "# trace (oldest first, frozen at first violation):\n";
      std::istringstream in(v.trace);
      std::string line;
      while (std::getline(in, line)) out += "#   " + line + "\n";
    }
  } else {
    out += "# verdict: all invariants held\n";
  }
  return out;
}

}  // namespace dcp
