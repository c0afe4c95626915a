// Tests for the experiment-config parser and runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/config.h"
#include "harness/scheme.h"
#include "topo/dumbbell.h"
#include "workload/flowgen.h"

namespace dcp {
namespace {

TEST(Config, ParsesFullWebsearchConfig) {
  const char* text =
      "# comment\n"
      "experiment = websearch\n"
      "scheme = irn-ecmp   # trailing comment\n"
      "with_cc = true\n"
      "cc = timely\n"
      "load = 0.7\n"
      "flows = 123\n"
      "dist = datamining\n"
      "spines = 8\n"
      "incast = yes\n"
      "incast_fan_in = 31\n";
  std::string err;
  auto cfg = parse_experiment_config(text, &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->kind, Experiment::kWebSearch);
  const WorldSpec& s = cfg->spec;
  EXPECT_EQ(s.scheme, SchemeKind::kIrnEcmp);
  EXPECT_TRUE(s.opt.with_cc);
  EXPECT_EQ(s.opt.cc_type, CcConfig::Type::kTimely);
  EXPECT_DOUBLE_EQ(s.load, 0.7);
  EXPECT_EQ(s.poisson_flows, 123u);
  EXPECT_EQ(s.dist, WorkloadDist::kDataMining);
  EXPECT_EQ(s.topo, TopoKind::kClos);
  EXPECT_EQ(s.clos.spines, 8);
  EXPECT_TRUE(s.with_incast);
  EXPECT_EQ(s.incast.fan_in, 31);
  // The websearch preset fills what the file leaves out.
  EXPECT_TRUE(s == [] {
    WorldSpec want = experiment_world(Experiment::kWebSearch);
    want.scheme = SchemeKind::kIrnEcmp;
    want.opt.with_cc = true;
    want.opt.cc_type = CcConfig::Type::kTimely;
    want.load = 0.7;
    want.poisson_flows = 123;
    want.dist = WorkloadDist::kDataMining;
    want.clos.spines = 8;
    want.with_incast = true;
    want.incast.fan_in = 31;
    return want;
  }()) << world_text(s);
}

TEST(Config, DefaultsAreSane) {
  auto cfg = parse_experiment_config("");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->kind, Experiment::kWebSearch);
  EXPECT_EQ(cfg->spec.scheme, SchemeKind::kDcp);
  EXPECT_FALSE(cfg->spec.opt.with_cc);
  EXPECT_TRUE(cfg->spec == experiment_world(Experiment::kWebSearch));
}

TEST(Config, ErrorsNameTheLine) {
  std::string err;
  EXPECT_FALSE(parse_experiment_config("scheme = dcp\nbogus_key = 1\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("bogus_key"), std::string::npos);

  EXPECT_FALSE(parse_experiment_config("load = not_a_number\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);

  // Numbers must be the whole token, and unsigned fields take no sign.
  for (const char* text : {"flows = 10x\n", "load = 0.3abc\n", "spines = 4.7\n", "seed = -1\n",
                           "flows = -5\n", "max_time_ms = inf\n"}) {
    err.clear();
    EXPECT_FALSE(parse_experiment_config(std::string("scheme = dcp\n") + text, &err).has_value())
        << text;
    EXPECT_NE(err.find("line 2"), std::string::npos) << text << ": " << err;
  }
  EXPECT_FALSE(parse_experiment_config("[scheme]\nfec_k = 8x\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  EXPECT_FALSE(parse_experiment_config("just a line without equals\n", &err).has_value());
  EXPECT_FALSE(parse_experiment_config("scheme = klingon\n", &err).has_value());
  EXPECT_FALSE(parse_experiment_config("with_cc = maybe\n", &err).has_value());
}

TEST(Config, FabricsWithFewerThanTwoHostsFailClosed) {
  // Every flow needs two distinct hosts: an empty fabric used to crash the
  // flow generator, and a one-host fabric ran loopback flows as completed.
  const std::string base = "experiment = websearch\nscheme = dcp\nflows = 20\n";
  std::string err;
  EXPECT_FALSE(parse_experiment_config(base + "hosts_per_leaf = 0\n", &err).has_value());
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("hosts_per_leaf must be >= 1"), std::string::npos) << err;
  for (const char* key : {"spines", "leaves"}) {
    EXPECT_FALSE(parse_experiment_config(base + key + " = -2\n", &err).has_value()) << key;
    EXPECT_NE(err.find(std::string(key) + " must be >= 1"), std::string::npos) << err;
  }

  EXPECT_FALSE(parse_experiment_config(base + "spines = 1\nleaves = 1\nhosts_per_leaf = 1\n", &err)
                   .has_value());
  EXPECT_NE(err.find("line 6"), std::string::npos) << err;
  EXPECT_NE(err.find("leaves * hosts_per_leaf = 1"), std::string::npos) << err;
  EXPECT_NE(err.find("at least two hosts"), std::string::npos) << err;

  EXPECT_TRUE(parse_experiment_config(base + "spines = 1\nleaves = 1\nhosts_per_leaf = 2\n", &err)
                  .has_value())
      << err;
}

TEST(Config, CollectiveKeysFailClosed) {
  // A one-member ring sends to itself, and a placement that wraps around
  // the fabric puts two members of one group on one host: both started
  // loopback flows, which start_flow refuses.
  const std::string base = "experiment = collective\nscheme = dcp\n";
  std::string err;
  EXPECT_FALSE(parse_experiment_config(base + "members = 1\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("members must be >= 2"), std::string::npos) << err;
  EXPECT_FALSE(parse_experiment_config(base + "groups = 0\n", &err).has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("groups must be >= 1"), std::string::npos) << err;

  // 2 x 2 hosts, default 4 groups: gcd(4, 4) = 4, so one member per group fits.
  const std::string small = base + "collective_kind = alltoall\nspines = 2\nleaves = 2\n"
                                   "hosts_per_leaf = 2\n";
  EXPECT_FALSE(parse_experiment_config(small + "members = 20\n", &err).has_value());
  EXPECT_NE(err.find("line 7"), std::string::npos) << err;
  EXPECT_NE(err.find("members = 20 with groups = 4 on 4 hosts"), std::string::npos) << err;
  // Three groups interleave over all four hosts, so four members fit...
  EXPECT_TRUE(parse_experiment_config(small + "groups = 3\nmembers = 4\n", &err).has_value())
      << err;
  // ...but not five, reported at the last line that shaped the placement.
  EXPECT_FALSE(
      parse_experiment_config(base + "groups = 3\nmembers = 5\nleaves = 2\nhosts_per_leaf = 2\n",
                              &err)
          .has_value());
  EXPECT_NE(err.find("line 6"), std::string::npos) << err;
  EXPECT_NE(err.find("at most 4 fit"), std::string::npos) << err;
  // Placement only binds a collective experiment.
  EXPECT_TRUE(parse_experiment_config("experiment = websearch\nleaves = 1\nhosts_per_leaf = 2\n",
                                      &err)
                  .has_value())
      << err;
}

TEST(Config, RangeKeysFailClosed) {
  // Each of these used to run: regions and hosts_per_region off build_wan's
  // range segfaulted or built past it, a zero Poisson or incast rate made
  // an infinite gap, a zero ratio built a 0 Gbps link, and a negative
  // leaf-spine or WAN delay segfaulted or hung.
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"experiment = wanflow\nregions = 1\n", "regions must be >= 2"},
      {"experiment = wanflow\nregions = 9\n", "regions must be <= 8"},
      {"experiment = wanflow\nhosts_per_region = 0\n", "hosts_per_region must be >= 1"},
      {"experiment = websearch\nload = 0\n", "load must be > 0"},
      {"experiment = websearch\nload = -0.5\n", "load must be > 0"},
      {"experiment = websearch\nincast_load = 0\n", "incast_load must be > 0"},
      {"experiment = unequal_paths\nratio = 0\n", "ratio must be > 0"},
      {"experiment = unequal_paths\nratio = -4\n", "ratio must be > 0"},
      {"experiment = websearch\nfattree_k = 3\n", "fattree_k must be even"},
      {"experiment = websearch\nleaf_spine_delay_us = -1\n", "leaf_spine_delay_us must be >= 0"},
      {"experiment = wanflow\nwan_delay_ms = -1\n", "wan_delay_ms must be >= 0"},
      {"experiment = longflow\nmax_time_ms = -5\n", "max_time_ms must be >= 0"},
      {"experiment = websearch\nflow src=0 dst=5 bytes=10 start=-5us\n",
       "bad flow entry 'start=-5us'"},
      // -1 is how the spec spells `across`; as a number it is no host.
      {"experiment = websearch\nflow src=0 dst=-1 bytes=10\n", "bad flow entry 'dst=-1'"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(parse_experiment_config(c.text, &err).has_value()) << c.text;
    EXPECT_NE(err.find("line 2"), std::string::npos) << c.text << ": " << err;
    EXPECT_NE(err.find(c.message), std::string::npos) << c.text << ": " << err;
  }
}

TEST(Config, UnbuildableCombinationsFailClosed) {
  std::string err;
  // Keys of two topologies describe no one world.
  EXPECT_FALSE(parse_experiment_config("spines = 2\nregions = 3\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("'regions' describes a WAN, but line 1 describes a Clos"), std::string::npos)
      << err;
  // flow_bytes sizes the experiment's own flows: none under websearch, and
  // explicit flow lines replace them.
  EXPECT_FALSE(parse_experiment_config("flows = 3\nflow_bytes = 1000\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(parse_experiment_config(
                   "experiment = longflow\nflow_bytes = 1000\nflow src=0 dst=9 bytes=10\n", &err)
                   .has_value());
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  // Flow endpoints index the world's hosts.
  EXPECT_FALSE(parse_experiment_config(
                   "spines = 1\nleaves = 2\nhosts_per_leaf = 1\nflow src=0 dst=2 bytes=10\n", &err)
                   .has_value());
  EXPECT_NE(err.find("line 4"), std::string::npos) << err;
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  // So must the experiment's own flows on the topology the keys build: a
  // one-leaf drill would send to itself, and a second unequal-path flow
  // needs a second host behind each switch.
  for (const char* text : {"experiment = fault_drill\nleaves = 1\nhosts_per_leaf = 2\n",
                           "experiment = unequal_paths\nleaves = 2\nhosts_per_leaf = 1\n"}) {
    EXPECT_FALSE(parse_experiment_config(text, &err).has_value()) << text;
    EXPECT_NE(err.find("line 3: flow endpoints out of range"), std::string::npos) << err;
  }
  // Flow lines replace the experiment's own flows, and the unequal-paths
  // readout compares two...
  EXPECT_FALSE(
      parse_experiment_config("experiment = unequal_paths\nflow src=0 dst=8 bytes=1000\n", &err)
          .has_value());
  EXPECT_NE(err.find("line 2: unequal_paths compares two flows"), std::string::npos) << err;
  const std::string three = "flow src=0 dst=8 bytes=1000\nflow src=1 dst=9 bytes=1000\n"
                            "flow src=2 dst=10 bytes=1000\n";
  EXPECT_FALSE(parse_experiment_config("experiment = unequal_paths\n" + three, &err).has_value());
  EXPECT_NE(err.find("line 4: unequal_paths compares two flows; 3 given"), std::string::npos)
      << err;
  // ...and a one-flow readout reads one: a second flow line used to run
  // and go unreported.
  for (const char* kind : {"longflow", "fault_drill", "wanflow"}) {
    const std::string text = std::string("experiment = ") + kind +
                             "\nflow src=0 dst=across bytes=100000\n"
                             "flow src=1 dst=across bytes=100000\n";
    EXPECT_FALSE(parse_experiment_config(text, &err).has_value()) << kind;
    EXPECT_NE(err.find(std::string("line 3: ") + kind + " reads one flow; 2 given"),
              std::string::npos)
        << err;
  }
}

TEST(Config, TopologyKeysPickTheWorld) {
  // A topology key moves the experiment's world and its own flows with it:
  // the long flow crosses a fat-tree from pod 0 to the last pod.
  auto cfg = parse_experiment_config("experiment = longflow\nfattree_k = 4\nflow_bytes = 4096\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->spec.topo, TopoKind::kFatTree);
  ASSERT_EQ(cfg->spec.flows.size(), 1u);
  EXPECT_EQ(cfg->spec.flows[0].src, 0);
  EXPECT_EQ(cfg->spec.flows[0].dst, WorldFlow::kAcross);
  EXPECT_EQ(cfg->spec.dst_of(cfg->spec.flows[0]), 12);
  EXPECT_EQ(cfg->spec.flows[0].bytes, 4096u);
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("completed=yes"), std::string::npos) << report;
}

TEST(Config, FaultsReachCollectives) {
  // A blackhole over the whole budget must stall a collective: the plan
  // used to reach only the websearch, longflow and fault_drill worlds.
  const char* text =
      "experiment = collective\n"
      "groups = 1\n"
      "members = 4\n"
      "collective_bytes = 1048576\n"
      "max_time_ms = 20\n"
      "[faults]\n"
      "blackhole at=0us dur=20ms sw=all port=all\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->spec.faults.actions.size(), 1u);
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("done=no"), std::string::npos) << report;
}

TEST(Config, KeyListIsTheParsersKeyTable) {
  // example_run_config prints config_keys(); every listed key must be one
  // the parser knows, and every key world_text writes must be listed.
  const std::vector<std::string> keys = config_keys();
  for (const std::string& k : keys) {
    std::string err;
    parse_experiment_config(k + " = @\n", &err);
    EXPECT_EQ(err.find("unknown key"), std::string::npos) << k << ": " << err;
  }
  for (const char* k : {"regions", "hosts_per_region", "wan_delay_ms", "wan_loss_rate", "scheme",
                        "fec_k", "fec_m", "fec_stream_window_bytes", "fec_nack_delay_us",
                        "fattree_k", "injector_seed", "max_time_ms"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), k), keys.end()) << k;
  }
  std::string err;
  EXPECT_FALSE(parse_experiment_config("kind = fec\n", &err).has_value());
  EXPECT_NE(err.find("unknown key 'kind'"), std::string::npos) << err;
  WorldSpec s = experiment_world(Experiment::kFaultDrill);
  s.injector_seed = 5;
  s.poisson_flows = 3;
  s.with_incast = true;
  s.groups = 1;
  std::istringstream in(world_text(s));
  for (std::string line; std::getline(in, line) && line != "[faults]";) {
    if (line.rfind("flow ", 0) == 0) continue;
    const std::string key = line.substr(0, line.find(" = "));
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }
}

TEST(Config, WorldTextRoundTripsEveryExperiment) {
  // Each experiment's world, written and read back, is the same world:
  // `experiment` picks only the readout, and the unequal-path links are
  // written as their ratio (3 truncates to 239 ps/B, not 240).
  for (const char* kind : {"websearch", "longflow", "collective", "unequal_paths", "fault_drill",
                           "wanflow"}) {
    for (const char* extra : {"", "ratio = 3\n"}) {
      if (*extra != '\0' && std::string(kind) != "unequal_paths") continue;
      const std::string text = std::string("experiment = ") + kind + "\nseed = 77\n" + extra +
                               "incast = true\n[faults]\ndrop at=1ms rate=0.5\n";
      auto cfg = parse_experiment_config(text);
      ASSERT_TRUE(cfg.has_value()) << kind;
      const std::string written = world_text(cfg->spec);
      auto again = parse_experiment_config(written);
      ASSERT_TRUE(again.has_value()) << kind << "\n" << written;
      EXPECT_EQ(world_text(again->spec), written) << kind;
      EXPECT_FALSE(again->spec.injector_seed.has_value()) << kind;  // the builder derives it
      EXPECT_EQ(again->spec.testbed.cross_links, cfg->spec.testbed.cross_links) << kind;
      EXPECT_TRUE(again->spec == cfg->spec) << kind << "\n" << written;
    }
  }
}

TEST(Config, WorldTextKeepsEveryDigit) {
  // Values past nine significant digits: a fault rate, a buffer fraction,
  // a Poisson load, and times that are not whole microseconds, above 1 ms
  // and at 1 ps.  Each reads back exactly, field by field.
  WorldSpec s = experiment_world(Experiment::kWebSearch);
  s.load = 0.30000000000000004;
  s.max_time = milliseconds(3) + 1;
  s.opt.fec_nack_delay = microseconds(1500) + 7;
  s.flows = {{0, 5, 4096, 0, 1'234'567'891}};
  FaultAction drop;
  drop.kind = FaultKind::kDrop;
  drop.at = 1'000'000'001;
  drop.duration = milliseconds(2) + 3;
  drop.rate = 0.02000000001;
  FaultAction shrink;
  shrink.kind = FaultKind::kBufferShrink;
  shrink.at = 1;
  shrink.duration = microseconds(1);
  shrink.frac = 1.0 / 3.0;
  s.faults.actions = {drop, shrink};
  const std::string text = world_text(s);
  auto again = parse_experiment_config(text);
  ASSERT_TRUE(again.has_value()) << text;
  EXPECT_EQ(again->spec.load, s.load) << text;
  EXPECT_EQ(again->spec.max_time, s.max_time) << text;
  EXPECT_EQ(again->spec.opt.fec_nack_delay, s.opt.fec_nack_delay) << text;
  EXPECT_TRUE(again->spec.flows == s.flows) << text;
  EXPECT_TRUE(again->spec.faults == s.faults) << text;
  EXPECT_TRUE(again->spec == s) << text;
  // One picosecond or one ulp apart is another world.
  WorldSpec off = s;
  off.faults.actions[0].at += 1;
  EXPECT_NE(off.fingerprint(), s.fingerprint());
  off = s;
  off.faults.actions[0].rate = std::nextafter(drop.rate, 1.0);
  EXPECT_NE(off.fingerprint(), s.fingerprint());
  off = s;
  off.flows[0].start -= 1;
  EXPECT_NE(off.fingerprint(), s.fingerprint());
}

TEST(ConfigDeathTest, FlowsNeedTwoDistinctHosts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Simulator sim;
  Logger log{LogLevel::kOff};
  Network net{sim, log};
  SchemeSetup s = make_scheme(SchemeKind::kDcp);
  const Star star = build_star(net, 2, s.sw);
  apply_scheme(net, s);
  // The generator has no pair of distinct hosts among fewer than two...
  FlowGenParams p;
  p.num_flows = 20;
  EXPECT_TRUE(generate_poisson_flows(net, {star.hosts[0]}, SizeDist::websearch(), p).empty());
  EXPECT_TRUE(generate_poisson_flows(net, {}, SizeDist::websearch(), p).empty());
  EXPECT_EQ(net.flows_started(), 0u);
  // ...and start_flow refuses a loopback flow in every build.
  FlowSpec spec;
  spec.src = star.hosts[1]->id();
  spec.dst = spec.src;
  spec.bytes = 4096;
  EXPECT_DEATH(net.start_flow(spec), "loopback flow on host [0-9]+ refused");
}

TEST(Config, LongflowRuns) {
  const char* text =
      "experiment = longflow\n"
      "scheme = dcp\n"
      "loss_rate = 0.01\n"
      "flow_bytes = 5000000\n"
      "max_time_ms = 100\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("longflow DCP"), std::string::npos);
  EXPECT_NE(report.find("completed=yes"), std::string::npos);
}

TEST(Config, WebsearchRunsEndToEnd) {
  const char* text =
      "experiment = websearch\n"
      "scheme = dcp\n"
      "flows = 40\n"
      "load = 0.3\n"
      "max_time_ms = 2000\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("flows 40/40"), std::string::npos);
}

TEST(Config, CollectiveRuns) {
  const char* text =
      "experiment = collective\n"
      "scheme = dcp\n"
      "collective_kind = alltoall\n"
      "groups = 2\n"
      "members = 4\n"
      "collective_bytes = 4194304\n"
      "max_time_ms = 5000\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("done=yes"), std::string::npos);
}

TEST(Config, FaultsSectionParsesIntoPlan) {
  const char* text =
      "experiment = fault_drill\n"
      "scheme = irn\n"
      "flow_bytes = 3000000\n"
      "[faults]\n"
      "link_flap at=200us dur=300us sw=0 port=1 drop_inflight=true\n"
      "drop at=1ms dur=500us rate=0.02\n"
      "# comments still work here\n"
      "ho_loss at=2ms rate=0.1\n";
  std::string err;
  auto cfg = parse_experiment_config(text, &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->kind, Experiment::kFaultDrill);
  const WorldSpec& s = cfg->spec;
  EXPECT_EQ(s.scheme, SchemeKind::kIrn);
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].bytes, 3'000'000u);
  ASSERT_EQ(s.faults.actions.size(), 3u);
  EXPECT_EQ(s.faults.actions[0].kind, FaultKind::kLinkFlap);
  EXPECT_TRUE(s.faults.actions[0].drop_in_flight);
  EXPECT_DOUBLE_EQ(s.faults.actions[1].rate, 0.02);
  // It is the drill preset with those fields set.
  WorldSpec want = experiment_world(Experiment::kFaultDrill);
  want.scheme = SchemeKind::kIrn;
  want.flows[0].bytes = 3'000'000;
  want.faults = s.faults;
  EXPECT_TRUE(s == want) << world_text(s);
}

TEST(Config, FaultsSectionRoundTrips) {
  const char* text =
      "[faults]\n"
      "link_flap at=200us dur=300us sw=0 port=1 drop_inflight=true\n"
      "corrupt at=1ms dur=500us rate=0.001 sw=2\n"
      "buffer_shrink at=3ms dur=1ms frac=0.5\n"
      "blackhole at=4ms dur=100us sw=1 port=0\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  // Serialize the parsed plan back into a config and re-parse: identical.
  const std::string again_text = "[faults]\n" + cfg->spec.faults.to_config_text();
  auto again = parse_experiment_config(again_text);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(cfg->spec.faults, again->spec.faults);
}

TEST(Config, FaultsSectionErrors) {
  std::string err;
  EXPECT_FALSE(parse_experiment_config("[faults\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config("[warp]\n", &err).has_value());
  EXPECT_FALSE(parse_experiment_config("[faults]\ndrop at=1ms rate=7\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config("experiment = fault_drill\n[faults]\nnonsense\n", &err)
                   .has_value());
}

TEST(Config, FaultDrillRunsEndToEnd) {
  const char* text =
      "experiment = fault_drill\n"
      "scheme = dcp\n"
      "flow_bytes = 2000000\n"
      "max_time_ms = 50\n"
      "[faults]\n"
      "drop at=100us dur=200us rate=0.02 sw=0\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("fault_drill DCP"), std::string::npos);
  EXPECT_NE(report.find("completed=yes"), std::string::npos);
  EXPECT_NE(report.find("episodes 1"), std::string::npos);
  EXPECT_NE(report.find("Episode"), std::string::npos);  // recovery table header
}

TEST(Config, SchemeSectionParsesKnobs) {
  const char* text =
      "experiment = wanflow\n"
      "[scheme]\n"
      "scheme = fec\n"
      "fec_k = 12\n"
      "fec_m = 3\n"
      "fec_stream_window_bytes = 4000000\n"
      "fec_nack_delay_us = 250\n";
  std::string err;
  auto cfg = parse_experiment_config(text, &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->kind, Experiment::kWanFlow);
  EXPECT_EQ(cfg->spec.topo, TopoKind::kWan);
  EXPECT_EQ(cfg->spec.scheme, SchemeKind::kFec);
  EXPECT_EQ(cfg->spec.opt.fec_k, 12u);
  EXPECT_EQ(cfg->spec.opt.fec_m, 3u);
  EXPECT_EQ(cfg->spec.opt.fec_stream_window_bytes, 4'000'000u);
  EXPECT_EQ(cfg->spec.opt.fec_nack_delay, microseconds(250));
}

TEST(Config, SchemeSectionRoundTripsEveryScheme) {
  const std::pair<const char*, SchemeKind> kinds[] = {
      {"pfc", SchemeKind::kPfc},         {"irn", SchemeKind::kIrn},
      {"irn-ecmp", SchemeKind::kIrnEcmp}, {"mp-rdma", SchemeKind::kMpRdma},
      {"dcp", SchemeKind::kDcp},         {"cx5", SchemeKind::kCx5},
      {"timeout", SchemeKind::kTimeout}, {"rack-tlp", SchemeKind::kRackTlp},
      {"tcp", SchemeKind::kTcp},         {"fec", SchemeKind::kFec}};
  for (const auto& [name, k] : kinds) {
    const std::string text = std::string("[scheme]\nscheme = ") + name +
                             "\nfec_k = 6\nfec_m = 2\nfec_stream_window_bytes = 123456\n"
                             "fec_nack_delay_us = 75\n";
    auto cfg = parse_experiment_config(text);
    ASSERT_TRUE(cfg.has_value()) << name;
    EXPECT_EQ(cfg->spec.scheme, k) << name;
    EXPECT_EQ(cfg->spec.opt.fec_k, 6u);
    EXPECT_EQ(cfg->spec.opt.fec_m, 2u);
    EXPECT_EQ(cfg->spec.opt.fec_stream_window_bytes, 123456u);
    EXPECT_EQ(cfg->spec.opt.fec_nack_delay, microseconds(75));
    // The canonical text writes the scheme back under its own name.
    auto again = parse_experiment_config(world_text(cfg->spec));
    ASSERT_TRUE(again.has_value()) << name;
    EXPECT_EQ(again->spec.scheme, k) << name;
  }
}

TEST(Config, SchemeSectionErrors) {
  std::string err;
  EXPECT_FALSE(parse_experiment_config("[scheme]\nscheme = klingon\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config("[scheme]\nfec_k = 0\n", &err).has_value());
  EXPECT_FALSE(parse_experiment_config("[scheme]\nfec_k = 250\nfec_m = 10\n", &err).has_value());
  EXPECT_NE(err.find("256"), std::string::npos);
  EXPECT_FALSE(parse_experiment_config("[scheme]\nbogus = 1\n", &err).has_value());
}

TEST(Config, WanflowRunsEndToEnd) {
  const char* text =
      "experiment = wanflow\n"
      "regions = 2\n"
      "hosts_per_region = 2\n"
      "wan_delay_ms = 2\n"
      "wan_loss_rate = 0.02\n"
      "flow_bytes = 1000000\n"
      "max_time_ms = 2000\n"
      "[scheme]\n"
      "scheme = fec\n"
      "fec_k = 8\n"
      "fec_m = 2\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->spec.wan.regions, 2);
  EXPECT_EQ(cfg->spec.wan.wan_delay, milliseconds(2));
  const std::string report = run_configured_experiment(*cfg);
  EXPECT_NE(report.find("wanflow FEC"), std::string::npos);
  EXPECT_NE(report.find("completed=yes"), std::string::npos);
}

TEST(Config, MissingFileReportsError) {
  std::string err;
  EXPECT_FALSE(load_experiment_config("/no/such/file.conf", &err).has_value());
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace dcp
