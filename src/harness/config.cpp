#include "harness/config.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "harness/report.h"

namespace dcp {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool parse_bool(const std::string& v, bool& out) {
  const std::string l = lower(v);
  if (l == "true" || l == "yes" || l == "1" || l == "on") {
    out = true;
    return true;
  }
  if (l == "false" || l == "no" || l == "0" || l == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

std::optional<ExperimentConfig> parse_experiment_config(const std::string& text,
                                                        std::string* error) {
  ExperimentConfig cfg;
  auto fail = [&](int line_no, const std::string& msg) -> std::optional<ExperimentConfig> {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };

  SchemeKind scheme = SchemeKind::kDcp;
  SchemeOptions opt;
  bool in_faults = false;
  bool in_scheme = false;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  int fabric_line = 0;  // the last line that sized the Clos fabric
  int collective_line = 0;  // the last line that set members or groups
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') return fail(line_no, "unterminated section header");
      const std::string section = lower(trim(line.substr(1, line.size() - 2)));
      in_faults = false;
      in_scheme = false;
      if (section == "faults") in_faults = true;
      else if (section == "scheme") in_scheme = true;
      else if (section != "general" && section != "experiment") {
        return fail(line_no, "unknown section '" + section + "'");
      }
      continue;
    }
    if (in_faults) {
      std::string ferr;
      std::optional<FaultAction> a = parse_fault_action(line, &ferr);
      if (!a) return fail(line_no, ferr);
      cfg.faults.actions.push_back(*a);
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return fail(line_no, "expected key = value");
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string val = trim(line.substr(eq + 1));
    if (val.empty()) return fail(line_no, "empty value for '" + key + "'");

    // Keys named *_us / *_ms take a bare number in that unit.
    const auto time_in = [&val](const char* unit, Time* out) { return parse_time(val + unit, out); };
    std::uint64_t u = 0;
    int i = 0;
    Time t = 0;
    bool ok = true;

    if (in_scheme) {
      if (key == "kind" || key == "scheme") {
        const auto k = scheme_from_name(val);
        if (!k) return fail(line_no, "unknown scheme '" + val + "'");
        scheme = *k;
      } else if (key == "fec_k" || key == "fec_m") {
        if ((ok = parse_uint(val, &u))) {
          if (u == 0) return fail(line_no, key + " must be >= 1");
          if (u > 256) return fail(line_no, "fec_k + fec_m must be <= 256");
          (key == "fec_k" ? opt.fec_k : opt.fec_m) = static_cast<std::uint32_t>(u);
        }
      } else if (key == "fec_stream_window_bytes") {
        ok = parse_uint(val, &opt.fec_stream_window_bytes);
      } else if (key == "fec_nack_delay_us") {
        ok = time_in("us", &opt.fec_nack_delay);
      } else {
        return fail(line_no, "unknown [scheme] key '" + key + "'");
      }
      if (!ok) return fail(line_no, "bad numeric value '" + val + "' for '" + key + "'");
      if (opt.fec_k + opt.fec_m > 256) return fail(line_no, "fec_k + fec_m must be <= 256");
      continue;
    }

    if (key == "experiment") {
      const std::string l = lower(val);
      if (l == "websearch") cfg.kind = ExperimentConfig::Kind::kWebSearch;
      else if (l == "longflow") cfg.kind = ExperimentConfig::Kind::kLongFlow;
      else if (l == "collective") cfg.kind = ExperimentConfig::Kind::kCollective;
      else if (l == "unequal_paths") cfg.kind = ExperimentConfig::Kind::kUnequalPaths;
      else if (l == "fault_drill" || l == "faultdrill") {
        cfg.kind = ExperimentConfig::Kind::kFaultDrill;
      } else if (l == "wanflow" || l == "wan_flow") {
        cfg.kind = ExperimentConfig::Kind::kWanFlow;
      } else return fail(line_no, "unknown experiment '" + val + "'");
    } else if (key == "scheme") {
      const auto k = scheme_from_name(val);
      if (!k) return fail(line_no, "unknown scheme '" + val + "'");
      scheme = *k;
    } else if (key == "with_cc") {
      if (!parse_bool(val, opt.with_cc)) return fail(line_no, "bad bool '" + val + "'");
    } else if (key == "cc") {
      const std::string l = lower(val);
      if (l == "dcqcn") opt.cc_type = CcConfig::Type::kDcqcn;
      else if (l == "timely") opt.cc_type = CcConfig::Type::kTimely;
      else return fail(line_no, "unknown cc '" + val + "'");
    } else if (key == "load") {
      ok = parse_double(val, &cfg.websearch.load);
    } else if (key == "flows") {
      if ((ok = parse_uint(val, &u))) cfg.websearch.num_flows = u;
    } else if (key == "seed") {
      if ((ok = parse_uint(val, &u))) {
        cfg.websearch.seed = u;
        cfg.longflow.seed = u;
        cfg.faultdrill.seed = u;
        cfg.wanflow.seed = u;
      }
    } else if (key == "dist") {
      const std::string l = lower(val);
      if (l == "websearch") cfg.websearch.dist = WorkloadDist::kWebSearch;
      else if (l == "datamining") cfg.websearch.dist = WorkloadDist::kDataMining;
      else return fail(line_no, "unknown dist '" + val + "'");
    } else if (key == "spines" || key == "leaves" || key == "hosts_per_leaf") {
      if ((ok = parse_int(val, &i))) {
        if (i < 1) return fail(line_no, key + " must be >= 1");
        int ClosParams::*field = key == "spines"   ? &ClosParams::spines
                                 : key == "leaves" ? &ClosParams::leaves
                                                   : &ClosParams::hosts_per_leaf;
        cfg.websearch.clos.*field = i;
        cfg.collective.clos.*field = i;
        cfg.faultdrill.clos.*field = i;
        fabric_line = line_no;
      }
    } else if (key == "leaf_spine_delay_us") {
      ok = time_in("us", &cfg.websearch.clos.leaf_spine_delay);
    } else if (key == "incast") {
      if (!parse_bool(val, cfg.websearch.with_incast)) {
        return fail(line_no, "bad bool '" + val + "'");
      }
    } else if (key == "incast_fan_in") {
      ok = parse_int(val, &cfg.websearch.incast.fan_in);
    } else if (key == "incast_load") {
      ok = parse_double(val, &cfg.websearch.incast.load);
    } else if (key == "incast_bytes") {
      ok = parse_uint(val, &cfg.websearch.incast.bytes_per_sender);
    } else if (key == "loss_rate") {
      ok = parse_double(val, &cfg.longflow.loss_rate);
    } else if (key == "flow_bytes") {
      if ((ok = parse_uint(val, &u))) {
        cfg.longflow.flow_bytes = u;
        cfg.faultdrill.flow_bytes = u;
        cfg.wanflow.flow_bytes = u;
      }
    } else if (key == "regions") {
      ok = parse_int(val, &cfg.wanflow.wan.regions);
    } else if (key == "hosts_per_region") {
      ok = parse_int(val, &cfg.wanflow.wan.hosts_per_region);
    } else if (key == "wan_delay_ms") {
      ok = time_in("ms", &cfg.wanflow.wan.wan_delay);
    } else if (key == "wan_loss_rate") {
      ok = parse_double(val, &cfg.wanflow.wan.wan_loss_rate);
    } else if (key == "collective_kind") {
      const std::string l = lower(val);
      if (l == "allreduce") cfg.collective.kind = CollectiveKind::kAllReduce;
      else if (l == "alltoall") cfg.collective.kind = CollectiveKind::kAllToAll;
      else return fail(line_no, "unknown collective '" + val + "'");
    } else if (key == "groups" || key == "members") {
      if ((ok = parse_int(val, &i))) {
        // A group needs a second member to send to.
        const int least = key == "groups" ? 1 : 2;
        if (i < least) return fail(line_no, key + " must be >= " + std::to_string(least));
        (key == "groups" ? cfg.collective.groups : cfg.collective.members_per_group) = i;
        collective_line = line_no;
      }
    } else if (key == "collective_bytes") {
      ok = parse_uint(val, &cfg.collective.total_bytes);
    } else if (key == "ratio") {
      ok = parse_double(val, &cfg.unequal_ratio);
    } else if (key == "max_time_ms") {
      if ((ok = time_in("ms", &t))) {
        cfg.websearch.max_time = t;
        cfg.longflow.max_time = t;
        cfg.collective.max_time = t;
        cfg.faultdrill.max_time = t;
        cfg.wanflow.max_time = t;
      }
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
    if (!ok) return fail(line_no, "bad numeric value '" + val + "' for '" + key + "'");
  }
  // Every flow needs two distinct hosts.
  if (const int n = cfg.websearch.clos.num_hosts(); n < 2) {
    return fail(fabric_line, "leaves * hosts_per_leaf = " + std::to_string(n) +
                                 ": the fabric needs at least two hosts");
  }
  // run_collectives puts member m of group g on host (m * groups + g) mod
  // hosts, which repeats after hosts / gcd(groups, hosts) members.
  if (cfg.kind == ExperimentConfig::Kind::kCollective) {
    const CollectiveExpParams& c = cfg.collective;
    const int hosts = c.clos.num_hosts();
    const int fit = hosts / std::gcd(c.groups, hosts);
    if (c.members_per_group > fit) {
      return fail(std::max(collective_line, fabric_line),
                  "members = " + std::to_string(c.members_per_group) + " with groups = " +
                      std::to_string(c.groups) + " on " + std::to_string(hosts) +
                      " hosts puts two members of one group on one host (at most " +
                      std::to_string(fit) + " fit)");
    }
  }

  cfg.websearch.scheme = scheme;
  cfg.websearch.opt = opt;
  cfg.longflow.scheme = scheme;
  cfg.longflow.opt = opt;
  cfg.collective.scheme = scheme;
  cfg.collective.opt = opt;
  cfg.faultdrill.scheme = scheme;
  cfg.faultdrill.opt = opt;
  cfg.wanflow.scheme = scheme;
  cfg.wanflow.opt = opt;
  cfg.websearch.faults = cfg.faults;
  cfg.longflow.faults = cfg.faults;
  cfg.faultdrill.faults = cfg.faults;
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

std::string run_configured_experiment(const ExperimentConfig& cfg) {
  char buf[256];
  std::string out;
  switch (cfg.kind) {
    case ExperimentConfig::Kind::kWebSearch: {
      WebSearchResult r = run_websearch(cfg.websearch);
      std::snprintf(buf, sizeof(buf),
                    "websearch %s: flows %zu/%zu  P50 %.2f  P95 %.2f  P99 %.2f  "
                    "timeouts %llu  trims %llu\n",
                    scheme_name(cfg.websearch.scheme), r.flows_completed, r.flows_total,
                    r.background.overall().percentile(50), r.background.overall().percentile(95),
                    r.background.overall().percentile(99),
                    static_cast<unsigned long long>(r.timeouts_background + r.timeouts_incast),
                    static_cast<unsigned long long>(r.sw.trimmed));
      out = buf;
      break;
    }
    case ExperimentConfig::Kind::kLongFlow: {
      LongFlowResult r = run_long_flow(cfg.longflow);
      std::snprintf(buf, sizeof(buf), "longflow %s: goodput %.2f Gbps  completed=%s\n",
                    scheme_name(cfg.longflow.scheme), r.goodput_gbps, r.completed ? "yes" : "no");
      out = buf;
      break;
    }
    case ExperimentConfig::Kind::kCollective: {
      CollectiveResult r = run_collectives(cfg.collective);
      double worst = 0;
      for (double j : r.jct_ms) worst = std::max(worst, j);
      std::snprintf(buf, sizeof(buf),
                    "collective %s: groups %zu  worst JCT %.2f ms  ideal %.2f ms  done=%s\n",
                    scheme_name(cfg.collective.scheme), r.jct_ms.size(), worst, r.ideal_jct_ms,
                    r.all_done ? "yes" : "no");
      out = buf;
      break;
    }
    case ExperimentConfig::Kind::kUnequalPaths: {
      UnequalPathsResult r =
          run_unequal_paths(cfg.longflow.scheme, cfg.unequal_ratio, cfg.longflow.flow_bytes);
      std::snprintf(buf, sizeof(buf), "unequal_paths %s ratio 1:%g: avg goodput %.2f Gbps\n",
                    scheme_name(cfg.longflow.scheme), cfg.unequal_ratio, r.avg_goodput_gbps);
      out = buf;
      break;
    }
    case ExperimentConfig::Kind::kWanFlow: {
      WanFlowResult r = run_wan_flow(cfg.wanflow);
      std::snprintf(buf, sizeof(buf),
                    "wanflow %s: goodput %.2f Gbps  completed=%s  wire drops %llu  "
                    "decode-recovered %llu  nack-recovered %llu\n",
                    scheme_name(cfg.wanflow.scheme), r.goodput_gbps, r.completed ? "yes" : "no",
                    static_cast<unsigned long long>(r.wire_dropped),
                    static_cast<unsigned long long>(r.receiver.decode_recovered_packets),
                    static_cast<unsigned long long>(r.receiver.nack_recovered_packets));
      out = buf;
      break;
    }
    case ExperimentConfig::Kind::kFaultDrill: {
      FaultDrillResult r = run_fault_drill(cfg.faultdrill);
      std::snprintf(buf, sizeof(buf),
                    "fault_drill %s: goodput %.2f Gbps  completed=%s  episodes %zu  "
                    "wire drops %llu  corrupt %llu  blackholed %llu\n",
                    scheme_name(cfg.faultdrill.scheme), r.goodput_gbps,
                    r.completed ? "yes" : "no", r.fault_episodes.size(),
                    static_cast<unsigned long long>(r.wire.dropped),
                    static_cast<unsigned long long>(r.wire.corrupted),
                    static_cast<unsigned long long>(r.wire.blackholed));
      out = buf;
      if (!r.fault_episodes.empty()) {
        Table t(RecoveryStats::table_headers());
        for (auto& row : RecoveryStats::table_rows(r.fault_episodes)) t.add_row(std::move(row));
        out += t.str();
      }
      break;
    }
  }
  return out;
}

}  // namespace dcp
