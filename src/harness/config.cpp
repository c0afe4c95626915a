#include "harness/config.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>

#include "harness/report.h"

namespace dcp {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// The spellings of each named value; the first is the one written.
constexpr std::pair<const char*, bool> kBools[] = {
    {"true", true}, {"false", false}, {"yes", true}, {"no", false},
    {"1", true},    {"0", false},     {"on", true},  {"off", false}};
constexpr std::pair<const char*, CcConfig::Type> kCcs[] = {{"dcqcn", CcConfig::Type::kDcqcn},
                                                           {"timely", CcConfig::Type::kTimely}};
constexpr std::pair<const char*, WorkloadDist> kDists[] = {
    {"websearch", WorkloadDist::kWebSearch}, {"datamining", WorkloadDist::kDataMining}};
constexpr std::pair<const char*, CollectiveKind> kCollectives[] = {
    {"allreduce", CollectiveKind::kAllReduce}, {"alltoall", CollectiveKind::kAllToAll}};
constexpr std::pair<const char*, LbPolicy> kLbs[] = {
    {"ecmp", LbPolicy::kEcmp},   {"adaptive", LbPolicy::kAdaptive},
    {"spray", LbPolicy::kSpray}, {"flowlet", LbPolicy::kFlowlet},
    {"source_path", LbPolicy::kSourcePath}};
const auto& names_of(bool*) { return kBools; }
const auto& names_of(CcConfig::Type*) { return kCcs; }
const auto& names_of(WorkloadDist*) { return kDists; }
const auto& names_of(CollectiveKind*) { return kCollectives; }
const auto& names_of(LbPolicy*) { return kLbs; }

template <typename E, std::size_t N>
bool from_name(const std::string& v, const std::pair<const char*, E> (&names)[N], E* out) {
  for (const auto& [name, e] : names) {
    if (lower(v) == name) {
      *out = e;
      return true;
    }
  }
  return false;
}

template <typename E, std::size_t N>
std::string to_name(E e, const std::pair<const char*, E> (&names)[N]) {
  for (const auto& [name, x] : names) {
    if (x == e) return name;
  }
  return "";
}

// ---- The one key table --------------------------------------------------

/// The spec field a key reads and writes.
using Ref = std::variant<std::uint64_t*, std::uint32_t*, int*, double*, Time*, bool*, SchemeKind*,
                         CcConfig::Type*, WorkloadDist*, CollectiveKind*, LbPolicy*>;

struct Key {
  const char* name;
  /// The field; nullptr for the keys the parser reads itself.
  Ref (*ref)(WorldSpec& s) = nullptr;
  /// The topology the key describes: setting it selects that topology,
  /// and world_text writes it only for that topology.
  std::optional<TopoKind> topo = std::nullopt;
  /// When world_text writes the key besides; nullptr: always.
  bool (*shown)(const WorldSpec& s) = nullptr;
  int lo = 0, hi = std::numeric_limits<int>::max();  // integer range
  bool positive = false;  // doubles: must be > 0
  /// world_text writes the key only when it is off WorldSpec{}'s value, so
  /// worlds that leave it alone keep their text and fingerprint.
  bool sparse = false;
  /// Time keys: the unit of a bare number, from the name's _ms or _us.
  Time unit() const {
    return std::string_view(name).ends_with("_ms") ? kMillisecond : kMicrosecond;
  }
};

bool injector_seeded(const WorldSpec& s) { return s.injector_seed.has_value(); }
bool poisson(const WorldSpec& s) { return s.poisson_flows > 0; }
bool incast(const WorldSpec& s) { return s.with_incast; }
bool collectives(const WorldSpec& s) { return s.groups > 0; }
constexpr std::optional<TopoKind> kClos = TopoKind::kClos;
constexpr std::optional<TopoKind> kWan = TopoKind::kWan;
constexpr std::optional<TopoKind> kTestbed = TopoKind::kTestbed;

const Key kKeys[] = {
    {"experiment"},
    {"seed", [](WorldSpec& s) -> Ref { return &s.seed; }},
    // Unset, the builder derives it from `seed`; reading the key sets it.
    {"injector_seed",
     [](WorldSpec& s) -> Ref { return &s.injector_seed.emplace(s.injector_seed.value_or(0)); },
     {}, injector_seeded},
    {"max_time_ms", [](WorldSpec& s) -> Ref { return &s.max_time; }},
    {"scheme", [](WorldSpec& s) -> Ref { return &s.scheme; }},
    {"with_cc", [](WorldSpec& s) -> Ref { return &s.opt.with_cc; }},
    {"cc", [](WorldSpec& s) -> Ref { return &s.opt.cc_type; }},
    {"fec_k", [](WorldSpec& s) -> Ref { return &s.opt.fec_k; }, {}, {}, 1, 256},
    {"fec_m", [](WorldSpec& s) -> Ref { return &s.opt.fec_m; }, {}, {}, 1, 256},
    {"fec_stream_window_bytes", [](WorldSpec& s) -> Ref { return &s.opt.fec_stream_window_bytes; }},
    {"fec_nack_delay_us", [](WorldSpec& s) -> Ref { return &s.opt.fec_nack_delay; }},
    {.name = "data_queue_bytes",
     .ref = [](WorldSpec& s) -> Ref { return &s.opt.data_queue_bytes; },
     .lo = 1,
     .sparse = true},
    {.name = "buffer_bytes",
     .ref = [](WorldSpec& s) -> Ref { return &s.opt.buffer_bytes; },
     .lo = 1,
     .sparse = true},
    {.name = "control_weight",
     .ref = [](WorldSpec& s) -> Ref { return &s.opt.control_weight; },
     .positive = true,
     .sparse = true},
    // Unset, the scheme picks its own policy; reading the key sets it.
    {"lb", [](WorldSpec& s) -> Ref { return &s.opt.lb.emplace(s.opt.lb.value_or(LbPolicy{})); },
     {}, [](const WorldSpec& s) { return s.opt.lb.has_value(); }},
    {.name = "retrans_batch",
     .ref = [](WorldSpec& s) -> Ref { return &s.opt.retrans_batch; },
     .lo = 1,
     .sparse = true},
    {.name = "pcie_rtt_us",
     .ref = [](WorldSpec& s) -> Ref { return &s.opt.pcie_rtt; },
     .sparse = true},
    {"spines", [](WorldSpec& s) -> Ref { return &s.clos.spines; }, kClos, {}, 1},
    {"leaves", [](WorldSpec& s) -> Ref { return &s.clos.leaves; }, kClos, {}, 1},
    {"hosts_per_leaf", [](WorldSpec& s) -> Ref { return &s.clos.hosts_per_leaf; }, kClos, {}, 1},
    {"leaf_spine_delay_us", [](WorldSpec& s) -> Ref { return &s.clos.leaf_spine_delay; }, kClos},
    {"fattree_k", [](WorldSpec& s) -> Ref { return &s.fattree.k; }, TopoKind::kFatTree, {}, 2},
    // build_wan supports 2..8 regions.
    {"regions", [](WorldSpec& s) -> Ref { return &s.wan.regions; }, kWan, {}, 2, 8},
    {"hosts_per_region", [](WorldSpec& s) -> Ref { return &s.wan.hosts_per_region; }, kWan, {}, 1},
    {"wan_delay_ms", [](WorldSpec& s) -> Ref { return &s.wan.wan_delay; }, kWan},
    {"wan_loss_rate", [](WorldSpec& s) -> Ref { return &s.wan.wan_loss_rate; }, kWan},
    {"loss_rate", [](WorldSpec& s) -> Ref { return &s.loss_rate; }, kTestbed},
    {"ratio", nullptr, kTestbed},  // the two cross links, 1 : 1/ratio
    {"star_hosts", [](WorldSpec& s) -> Ref { return &s.star_hosts; }, TopoKind::kStar, {}, 2},
    {"back_to_back", nullptr, TopoKind::kBackToBack},  // takes only yes
    {"flow_bytes"},
    {"flows", [](WorldSpec& s) -> Ref { return &s.poisson_flows; }},
    {"load", [](WorldSpec& s) -> Ref { return &s.load; }, {}, poisson, 0, 0, true},
    {"dist", [](WorldSpec& s) -> Ref { return &s.dist; }, {}, poisson},
    {"incast", [](WorldSpec& s) -> Ref { return &s.with_incast; }},
    {"incast_fan_in", [](WorldSpec& s) -> Ref { return &s.incast.fan_in; }, {}, incast, 1},
    {"incast_load", [](WorldSpec& s) -> Ref { return &s.incast.load; }, {}, incast, 0, 0, true},
    {"incast_bytes", [](WorldSpec& s) -> Ref { return &s.incast.bytes_per_sender; }, {}, incast},
    {.name = "incast_bursts",
     .ref = [](WorldSpec& s) -> Ref { return &s.incast.bursts; },
     .shown = incast,
     .lo = 1,
     .sparse = true},
    {"collective_kind", [](WorldSpec& s) -> Ref { return &s.collective; }, {}, collectives},
    {"groups", [](WorldSpec& s) -> Ref { return &s.groups; }, {}, collectives, 1},
    // A group needs a second member to send to.
    {"members", [](WorldSpec& s) -> Ref { return &s.members; }, {}, collectives, 2},
    {"collective_bytes", [](WorldSpec& s) -> Ref { return &s.collective_bytes; }, {}, collectives},
};

/// Parses `v` into the key's field; returns an error message, "" on success.
std::string read_value(const Key& k, WorldSpec& s, const std::string& v) {
  const std::string key = k.name;
  const std::string bad = "bad numeric value '" + v + "' for '" + key + "'";
  const auto in_range = [&](int i) -> std::string {
    if (i < k.lo) return key + " must be >= " + std::to_string(k.lo);
    if (i > k.hi) return key + " must be <= " + std::to_string(k.hi);
    return "";
  };
  return std::visit(
      [&](auto* f) -> std::string {
        using T = std::remove_pointer_t<decltype(f)>;
        int i = 0;
        if constexpr (std::is_same_v<T, std::uint64_t>) {
          if (!parse_uint(v, f)) return bad;
          const bool low = *f < static_cast<std::uint64_t>(k.lo);
          return low ? key + " must be >= " + std::to_string(k.lo) : "";
        } else if constexpr (std::is_same_v<T, int> || std::is_same_v<T, std::uint32_t>) {
          if (!parse_int(v, &i)) return bad;
          if (std::string e = in_range(i); !e.empty()) return e;
          *f = static_cast<T>(i);
          return "";
        } else if constexpr (std::is_same_v<T, double>) {
          if (!parse_double(v, f)) return bad;
          return !k.positive || *f > 0 ? "" : key + " must be > 0";
        } else if constexpr (std::is_same_v<T, Time>) {
          // A bare number is in the key's unit; a number may carry its own.
          const bool has_unit = std::isalpha(static_cast<unsigned char>(v.back())) != 0;
          const char* unit = k.unit() == kMillisecond ? "ms" : "us";
          if (!parse_time(has_unit ? v : v + unit, f)) return bad;
          return *f >= 0 ? "" : key + " must be >= 0";  // a negative delay hangs or crashes
        } else if constexpr (std::is_same_v<T, SchemeKind>) {
          const auto sk = scheme_from_name(v);
          if (sk) *f = *sk;
          return sk ? "" : "unknown scheme '" + v + "'";
        } else {
          return from_name(v, names_of(f), f) ? "" : "unknown " + key + " '" + v + "'";
        }
      },
      k.ref(s));
}

/// The `ratio` that reads back as these cross links, if they have its form:
/// gbps() truncates to whole ps/B (80 at 100 Gbps), so try the ratio of the
/// two rates, then the middle of the ratios that truncate to the slow link.
std::optional<double> links_ratio(const std::vector<Bandwidth>& links) {
  if (links.size() != 2 || links[0] != Bandwidth::gbps(100)) return std::nullopt;
  for (const double r : {links[1].ps_per_byte / 80.0, (links[1].ps_per_byte + 0.5) / 80.0}) {
    if (r > 0 && Bandwidth::gbps(100.0 / r) == links[1]) return r;
  }
  return std::nullopt;
}

/// The key's value as world_text writes it: exact, so it reads back equal.
std::string write_value(const Key& k, WorldSpec& s) {
  return std::visit(
      [&](auto* f) -> std::string {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, double>) {
          return double_to_str(*f);
        } else if constexpr (std::is_same_v<T, Time>) {
          // A whole number of the key's unit, else microseconds.
          return *f % k.unit() == 0 ? std::to_string(*f / k.unit()) : time_to_str(*f);
        } else if constexpr (std::is_same_v<T, SchemeKind>) {
          return scheme_name(*f);
        } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
          return std::to_string(*f);
        } else {
          return to_name(*f, names_of(f));
        }
      },
      k.ref(s));
}

constexpr const char* kTopoNames[] = {"testbed", "Clos", "fat-tree", "WAN", "star",
                                      "back-to-back cable"};  // by TopoKind

/// `flow src=0 dst=1 bytes=4096 msg=0 start=1us`; returns "" on success.
std::string read_flow(const std::string& line, WorldFlow* f) {
  std::istringstream in(line.substr(5));
  std::string kv;
  while (in >> kv) {
    const std::size_t eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : kv.substr(eq + 1);
    bool ok = false;
    if (key == "src") ok = parse_int(val, &f->src);
    else if (key == "dst" && val == "across") ok = (f->dst = WorldFlow::kAcross, true);
    else if (key == "dst") ok = parse_int(val, &f->dst) && f->dst >= 0;
    else if (key == "bytes") ok = parse_uint(val, &f->bytes);
    else if (key == "msg") ok = parse_uint(val, &f->msg_bytes);
    else if (key == "start") ok = parse_time(val, &f->start) && f->start >= 0;
    if (!ok) return "bad flow entry '" + kv + "'";
  }
  return "";
}

}  // namespace

std::optional<ExperimentConfig> parse_experiment_config(const std::string& text,
                                                        std::string* error) {
  auto fail = [&](int line_no, const std::string& msg) -> std::optional<ExperimentConfig> {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };

  // Pass 1: syntax.  `experiment` is read here, because it picks the
  // defaults every other key overrides.
  struct Entry {
    int line;
    const Key* key;
    std::string val;
  };
  ExperimentConfig cfg;
  std::vector<Entry> entries;
  std::vector<std::pair<int, WorldFlow>> flows;
  FaultPlan faults;
  bool in_faults = false;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') return fail(line_no, "unterminated section header");
      const std::string section = lower(trim(line.substr(1, line.size() - 2)));
      if (section != "faults" && section != "scheme") {
        return fail(line_no, "unknown section '" + section + "'");
      }
      in_faults = section == "faults";
      continue;
    }
    if (in_faults) {
      std::string ferr;
      std::optional<FaultAction> a = parse_fault_action(line, &ferr);
      if (!a) return fail(line_no, ferr);
      faults.actions.push_back(*a);
      continue;
    }
    if (line.rfind("flow ", 0) == 0) {
      WorldFlow f;
      if (std::string e = read_flow(line, &f); !e.empty()) return fail(line_no, e);
      flows.emplace_back(line_no, f);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail(line_no, "expected key = value");
    const std::string name = lower(trim(line.substr(0, eq)));
    const std::string val = trim(line.substr(eq + 1));
    if (val.empty()) return fail(line_no, "empty value for '" + name + "'");
    const Key* key = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&](const Key& k) { return name == k.name; });
    if (key == std::end(kKeys)) return fail(line_no, "unknown key '" + name + "'");
    if (name == "experiment" && !from_name(val, kExperiments, &cfg.kind)) {
      return fail(line_no, "unknown experiment '" + val + "'");
    }
    entries.push_back({line_no, key, val});
  }

  // Pass 2: values, over the experiment's defaults.
  const WorldSpec defaults = experiment_world(cfg.kind);
  WorldSpec& s = cfg.spec;
  s = defaults;
  s.faults = faults;
  int topo_line = 0;  // the last line that shaped the topology
  int collective_line = 0;
  std::optional<std::uint64_t> flow_bytes;
  int flow_bytes_line = 0;
  for (const Entry& e : entries) {
    const std::string name = e.key->name;
    if (e.key->topo) {
      if (topo_line > 0 && s.topo != *e.key->topo) {
        return fail(e.line, "'" + name + "' describes a " +
                                kTopoNames[static_cast<int>(*e.key->topo)] + ", but line " +
                                std::to_string(topo_line) + " describes a " +
                                kTopoNames[static_cast<int>(s.topo)]);
      }
      s.topo = *e.key->topo;
      topo_line = e.line;
    }
    if (name == "groups" || name == "members") collective_line = e.line;
    std::string err;
    double ratio = 0;
    std::uint64_t bytes = 0;
    bool yes = false;
    if (e.key->ref != nullptr) {
      err = read_value(*e.key, s, e.val);
    } else if (name == "flow_bytes") {
      if (!parse_uint(e.val, &bytes)) err = "bad numeric value '" + e.val + "' for 'flow_bytes'";
      flow_bytes = bytes;
      flow_bytes_line = e.line;
    } else if (name == "ratio") {
      if (!parse_double(e.val, &ratio)) err = "bad numeric value '" + e.val + "' for 'ratio'";
      else if (ratio <= 0) err = "ratio must be > 0";
      else s.testbed.cross_links = unequal_cross_links(ratio);
    } else if (name == "back_to_back") {
      // The key selects the topology; `no` would select nothing.
      if (!from_name(e.val, kBools, &yes)) err = "unknown back_to_back '" + e.val + "'";
      else if (!yes) err = "back_to_back takes only yes; leave it out for another topology";
    }
    if (err.empty() && s.opt.fec_k + s.opt.fec_m > 256) err = "fec_k + fec_m must be <= 256";
    if (err.empty() && name == "fattree_k" && s.fattree.k % 2 != 0) err = "fattree_k must be even";
    if (!err.empty()) return fail(e.line, err);
  }

  // Every flow needs two distinct hosts.
  if (const int n = s.num_hosts(); n < 2) {
    return fail(topo_line, "leaves * hosts_per_leaf = " + std::to_string(n) +
                               ": the fabric needs at least two hosts");
  }
  if (!flows.empty()) {
    if (flow_bytes) return fail(flows.front().first, "flow lines and flow_bytes both set flows");
    // A readout of the experiment's own flows reads exactly that many: one
    // flow, or the two the unequal-paths readout compares.
    if (const std::size_t n = defaults.flows.size(); n > 0 && flows.size() != n) {
      return fail(flows[std::min(flows.size() - 1, n)].first,
                  to_name(cfg.kind, kExperiments) +
                      (n == 1 ? " reads one flow; " : " compares two flows; ") +
                      std::to_string(flows.size()) + " given");
    }
    s.flows.clear();
    for (const auto& [line, f] : flows) s.flows.push_back(f);
  } else if (flow_bytes) {
    if (s.flows.empty()) {
      return fail(flow_bytes_line,
                  "flow_bytes sizes the flows of longflow, unequal_paths, fault_drill and "
                  "wanflow; this experiment has none");
    }
    for (WorldFlow& f : s.flows) f.bytes = *flow_bytes;
  }
  // A flow line's endpoints, or the experiment's own flows across a
  // topology too small for them, must be two distinct hosts.
  for (std::size_t i = 0; i < s.flows.size(); ++i) {
    const WorldFlow& f = s.flows[i];
    const int dst = s.dst_of(f);
    if (f.src < 0 || dst < 0 || f.src >= s.num_hosts() || dst >= s.num_hosts() || f.src == dst) {
      return fail(flows.empty() ? topo_line : flows[i].first,
                  "flow endpoints out of range (or src == dst)");
    }
  }
  // Collective member m of group g sits on host (m * groups + g) mod
  // hosts, which repeats after hosts / gcd(groups, hosts) members.
  if (s.groups > 0) {
    const int hosts = s.num_hosts();
    const int fit = hosts / std::gcd(s.groups, hosts);
    if (s.members > fit) {
      return fail(std::max(collective_line, topo_line),
                  "members = " + std::to_string(s.members) + " with groups = " +
                      std::to_string(s.groups) + " on " + std::to_string(hosts) +
                      " hosts puts two members of one group on one host (at most " +
                      std::to_string(fit) + " fit)");
    }
  }
  return cfg;
}

std::optional<ExperimentConfig> load_experiment_config(const std::string& path,
                                                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_experiment_config(ss.str(), error);
}

std::string world_text(const WorldSpec& spec) {
  WorldSpec s = spec;  // the key table's field references are mutable
  WorldSpec defaults;
  std::string out;
  for (const Key& k : kKeys) {
    if ((k.topo && *k.topo != s.topo) || (k.shown && !k.shown(s))) continue;
    if (k.ref != nullptr) {
      const std::string v = write_value(k, s);
      if (!k.sparse || v != write_value(k, defaults)) out += std::string(k.name) + " = " + v + "\n";
    } else if (std::string_view(k.name) == "ratio") {
      const std::optional<double> r = links_ratio(s.testbed.cross_links);
      if (r) out += "ratio = " + double_to_str(*r) + "\n";
    } else if (std::string_view(k.name) == "back_to_back") {
      out += "back_to_back = yes\n";
    }
  }
  for (const WorldFlow& f : s.flows) {
    out += "flow src=" + std::to_string(f.src) +
           " dst=" + (f.dst == WorldFlow::kAcross ? "across" : std::to_string(f.dst)) +
           " bytes=" + std::to_string(f.bytes) + " msg=" + std::to_string(f.msg_bytes) +
           " start=" + time_to_str(f.start) + "\n";
  }
  out += "[faults]\n" + s.faults.to_config_text();
  return out;
}

std::vector<std::string> config_keys() {
  std::vector<std::string> out;
  for (const Key& k : kKeys) out.emplace_back(k.name);
  return out;
}

std::string run_configured_experiment(const ExperimentConfig& cfg) {
  const char* scheme = scheme_name(cfg.spec.scheme);
  SimWorld w(cfg.spec);
  char buf[256];
  const auto fmt = [&buf](const char* f, auto... args) {
    std::snprintf(buf, sizeof buf, f, args...);
    return std::string(buf);
  };
  const auto yes = [](bool b) { return b ? "yes" : "no"; };
  switch (cfg.kind) {
    case Experiment::kWebSearch: {
      WebSearchResult r = read_websearch(w);
      PercentileEstimator& bg = r.background.overall();
      return fmt("websearch %s: flows %zu/%zu  P50 %.2f  P95 %.2f  P99 %.2f  timeouts %llu  "
                 "trims %llu\n",
                 scheme, r.flows_completed, r.flows_total, bg.percentile(50), bg.percentile(95),
                 bg.percentile(99),
                 static_cast<unsigned long long>(r.timeouts_background + r.timeouts_incast),
                 static_cast<unsigned long long>(r.sw.trimmed));
    }
    case Experiment::kLongFlow: {
      const FlowResult r = read_flow(w);
      return fmt("longflow %s: goodput %.2f Gbps  completed=%s\n", scheme, r.goodput_gbps,
                 yes(r.completed));
    }
    case Experiment::kCollective: {
      const CollectiveResult r = read_collectives(w);
      double worst = 0;
      for (double j : r.jct_ms) worst = std::max(worst, j);
      return fmt("collective %s: groups %zu  worst JCT %.2f ms  ideal %.2f ms  done=%s\n", scheme,
                 r.jct_ms.size(), worst, r.ideal_jct_ms, yes(r.all_done));
    }
    case Experiment::kUnequalPaths: {
      const UnequalPathsResult r = read_unequal_paths(w);
      const std::vector<Bandwidth>& links = cfg.spec.testbed.cross_links;
      return fmt("unequal_paths %s ratio 1:%g: avg goodput %.2f Gbps\n", scheme,
                 links.front().as_gbps() / links.back().as_gbps(), r.avg_goodput_gbps);
    }
    case Experiment::kWanFlow: {
      const FlowResult r = read_flow(w);
      return fmt("wanflow %s: goodput %.2f Gbps  completed=%s  wire drops %llu  "
                 "decode-recovered %llu  nack-recovered %llu\n",
                 scheme, r.goodput_gbps, yes(r.completed),
                 static_cast<unsigned long long>(r.wire_dropped),
                 static_cast<unsigned long long>(r.receiver.decode_recovered_packets),
                 static_cast<unsigned long long>(r.receiver.nack_recovered_packets));
    }
    case Experiment::kFaultDrill: {
      const FlowResult r = read_flow(w);
      std::string out = fmt("fault_drill %s: goodput %.2f Gbps  completed=%s  episodes %zu  "
                            "wire drops %llu  corrupt %llu  blackholed %llu\n",
                            scheme, r.goodput_gbps, yes(r.completed), r.fault_episodes.size(),
                            static_cast<unsigned long long>(r.wire.dropped),
                            static_cast<unsigned long long>(r.wire.corrupted),
                            static_cast<unsigned long long>(r.wire.blackholed));
      if (!r.fault_episodes.empty()) {
        Table t(RecoveryStats::table_headers());
        for (auto& row : RecoveryStats::table_rows(r.fault_episodes)) t.add_row(std::move(row));
        out += t.str();
      }
      return out;
    }
  }
  return "";
}

}  // namespace dcp
