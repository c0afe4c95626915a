#include "check/fuzzer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/invariant_oracle.h"
#include "harness/checkpoint.h"
#include "sim/rng.h"
#include "topo/clos.h"

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

FuzzScenario generate_fuzz_scenario(std::uint64_t seed) {
  FuzzScenario s;
  s.seed = seed;
  s.max_time = milliseconds(50);

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
    s.spines = static_cast<int>(r.uniform_int(1, 3));
    s.leaves = static_cast<int>(r.uniform_int(2, 3));
    s.hosts_per_leaf = static_cast<int>(r.uniform_int(1, 3));
  }

  {
    Rng r = Rng::substream(seed, kTagFlows);
    const int hosts = s.num_hosts();
    const int n = static_cast<int>(r.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      FuzzFlow f;
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
    // Probabilities quantized to 6 decimals: the repro grammar serializes
    // them with %.9g, and a full-precision double would not round-trip.
    const auto q = [](double x) { return std::round(x * 1e6) / 1e6; };
    const int n = static_cast<int>(r.uniform_int(0, 6));
    const std::uint32_t num_sw = static_cast<std::uint32_t>(s.spines + s.leaves);
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

WorldSpec fuzz_world_spec(const FuzzScenario& s, const FuzzOptions& opt) {
  WorldSpec ws;
  ws.scenario = s;
  ws.injector_seed = mix64(s.seed ^ kTagInject);
  ws.factory_override = opt.factory_override;
  return ws;
}

FuzzVerdict run_fuzz_scenario(const FuzzScenario& s, const FuzzOptions& opt) {
  SimWorld w(fuzz_world_spec(s, opt));
  w.run_until_done();
  return w.finalize_verdict();
}

FuzzScenario shrink_fuzz_scenario(const FuzzScenario& s, const FuzzOptions& opt,
                                  ShrinkStats* stats, std::size_t max_runs) {
  ShrinkStats local;
  ShrinkStats& st = stats != nullptr ? *stats : local;
  st = {};
  st.actions_before = s.faults.actions.size();
  st.flows_before = s.flows.size();

  st.runs++;
  const FuzzVerdict base = run_fuzz_scenario(s, opt);
  if (!base.violated) {
    st.actions_after = st.actions_before;
    st.flows_after = st.flows_before;
    return s;
  }
  // One cold run per candidate, within the run budget.
  const auto reproduces = [&](const FuzzScenario& cand) {
    if (st.runs >= max_runs) return false;
    st.runs++;
    const FuzzVerdict v = run_fuzz_scenario(cand, opt);
    return v.violated && v.invariant == base.invariant;
  };
  FuzzScenario cur = s;

  // Phase 1: ddmin over fault actions — remove chunks, halving the chunk
  // size whenever a whole pass removes nothing.
  std::size_t chunk = std::max<std::size_t>(1, cur.faults.actions.size() / 2);
  while (!cur.faults.actions.empty()) {
    bool removed = false;
    for (std::size_t i = 0; i < cur.faults.actions.size();) {
      FuzzScenario cand = cur;
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
    FuzzScenario cand = cur;
    cand.flows.erase(cand.flows.begin() + static_cast<std::ptrdiff_t>(i));
    if (reproduces(cand)) {
      cur = std::move(cand);
    } else {
      ++i;
    }
  }

  // Phase 3: halve flow and message sizes while the violation survives.
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < cur.flows.size(); ++i) {
      if (cur.flows[i].bytes >= 2000) {
        FuzzScenario cand = cur;
        cand.flows[i].bytes /= 2;
        if (reproduces(cand)) {
          cur = std::move(cand);
          changed = true;
        }
      }
      if (cur.flows[i].msg_bytes >= 2048) {
        FuzzScenario cand = cur;
        cand.flows[i].msg_bytes /= 2;
        if (reproduces(cand)) {
          cur = std::move(cand);
          changed = true;
        }
      }
    }
  }

  // Phase 4: shorten the schedule.
  while (cur.max_time / 2 >= milliseconds(1)) {
    FuzzScenario cand = cur;
    cand.max_time /= 2;
    if (!reproduces(cand)) break;
    cur = std::move(cand);
  }

  st.actions_after = cur.faults.actions.size();
  st.flows_after = cur.flows.size();
  return cur;
}

std::string write_fuzz_repro(const FuzzScenario& s, const FuzzVerdict& v) {
  std::string out;
  out += "# run_fuzz repro — replay with: run_fuzz --replay <this file>\n";
  out += "[scenario]\n";
  out += "seed = " + std::to_string(s.seed) + "\n";
  out += std::string("scheme = ") + scheme_name(s.scheme) + "\n";
  out += "spines = " + std::to_string(s.spines) + "\n";
  out += "leaves = " + std::to_string(s.leaves) + "\n";
  out += "hosts_per_leaf = " + std::to_string(s.hosts_per_leaf) + "\n";
  if (s.fattree_k > 0) out += "fattree_k = " + std::to_string(s.fattree_k) + "\n";
  out += "max_time = " + time_to_str(s.max_time) + "\n";
  for (const FuzzFlow& f : s.flows) {
    out += "flow src=" + std::to_string(f.src) + " dst=" + std::to_string(f.dst) +
           " bytes=" + std::to_string(f.bytes) + " msg=" + std::to_string(f.msg_bytes) +
           " start=" + time_to_str(f.start) + "\n";
  }
  out += "[faults]\n";
  out += s.faults.to_config_text();
  out += "\n";
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

std::optional<FuzzScenario> parse_fuzz_scenario(const std::string& text, std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FuzzScenario> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  FuzzScenario s;
  s.flows.clear();
  std::string faults_text;
  enum class Section { kNone, kScenario, kFaults } section = Section::kNone;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line == "[scenario]") {
      section = Section::kScenario;
      continue;
    }
    if (line == "[faults]") {
      section = Section::kFaults;
      continue;
    }
    if (section == Section::kFaults) {
      faults_text += line + "\n";
      continue;
    }
    if (section != Section::kScenario) {
      return fail("line " + std::to_string(line_no) + ": content before [scenario]");
    }
    if (line.rfind("flow ", 0) == 0) {
      FuzzFlow f;
      std::istringstream fin(line.substr(5));
      std::string kv;
      while (fin >> kv) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          return fail("line " + std::to_string(line_no) + ": expected key=value");
        }
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        bool ok = false;
        if (key == "src") ok = parse_int(val, &f.src);
        else if (key == "dst") ok = parse_int(val, &f.dst);
        else if (key == "bytes") ok = parse_uint(val, &f.bytes);
        else if (key == "msg") ok = parse_uint(val, &f.msg_bytes);
        else if (key == "start") ok = parse_time(val, &f.start);
        if (!ok) {
          return fail("line " + std::to_string(line_no) + ": bad flow entry '" + kv + "'");
        }
      }
      s.flows.push_back(f);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail("line " + std::to_string(line_no) + ": expected key = value");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    bool ok = false;
    if (key == "seed") ok = parse_uint(val, &s.seed);
    else if (key == "scheme") {
      const auto k = scheme_from_name(val);
      ok = k.has_value();
      if (ok) s.scheme = *k;
    } else if (key == "spines") ok = parse_int(val, &s.spines);
    else if (key == "leaves") ok = parse_int(val, &s.leaves);
    else if (key == "hosts_per_leaf") ok = parse_int(val, &s.hosts_per_leaf);
    else if (key == "fattree_k") ok = parse_int(val, &s.fattree_k);
    else if (key == "max_time") ok = parse_time(val, &s.max_time);
    if (!ok) return fail("line " + std::to_string(line_no) + ": bad entry '" + line + "'");
  }

  if (section == Section::kNone) return fail("no [scenario] section");
  if (s.flows.empty()) return fail("scenario has no flows");
  if (s.spines < 1 || s.leaves < 1 || s.hosts_per_leaf < 1) return fail("bad topology");
  if (s.fattree_k < 0 || s.fattree_k % 2 != 0) return fail("fattree_k must be even");
  for (const FuzzFlow& f : s.flows) {
    if (f.src < 0 || f.dst < 0 || f.src >= s.num_hosts() || f.dst >= s.num_hosts() ||
        f.src == f.dst) {
      return fail("flow endpoints out of range (or src == dst)");
    }
  }
  std::string err;
  auto plan = parse_fault_plan(faults_text, &err);
  if (!plan) return fail(err);
  s.faults = *plan;
  return s;
}

}  // namespace dcp
