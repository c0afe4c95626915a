// Tests for the experiment-config parser and runner.

#include <gtest/gtest.h>

#include <string>
#include <utility>

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
  EXPECT_EQ(cfg->kind, ExperimentConfig::Kind::kWebSearch);
  EXPECT_EQ(cfg->websearch.scheme, SchemeKind::kIrnEcmp);
  EXPECT_TRUE(cfg->websearch.opt.with_cc);
  EXPECT_EQ(cfg->websearch.opt.cc_type, CcConfig::Type::kTimely);
  EXPECT_DOUBLE_EQ(cfg->websearch.load, 0.7);
  EXPECT_EQ(cfg->websearch.num_flows, 123u);
  EXPECT_EQ(cfg->websearch.dist, WorkloadDist::kDataMining);
  EXPECT_EQ(cfg->websearch.clos.spines, 8);
  EXPECT_TRUE(cfg->websearch.with_incast);
  EXPECT_EQ(cfg->websearch.incast.fan_in, 31);
}

TEST(Config, DefaultsAreSane) {
  auto cfg = parse_experiment_config("");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->kind, ExperimentConfig::Kind::kWebSearch);
  EXPECT_EQ(cfg->websearch.scheme, SchemeKind::kDcp);
  EXPECT_FALSE(cfg->websearch.opt.with_cc);
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
  EXPECT_EQ(cfg->kind, ExperimentConfig::Kind::kFaultDrill);
  EXPECT_EQ(cfg->faultdrill.scheme, SchemeKind::kIrn);
  EXPECT_EQ(cfg->faultdrill.flow_bytes, 3'000'000u);
  ASSERT_EQ(cfg->faults.actions.size(), 3u);
  EXPECT_EQ(cfg->faults.actions[0].kind, FaultKind::kLinkFlap);
  EXPECT_TRUE(cfg->faults.actions[0].drop_in_flight);
  EXPECT_DOUBLE_EQ(cfg->faults.actions[1].rate, 0.02);
  // The plan fans out to every experiment that accepts one.
  EXPECT_EQ(cfg->faultdrill.faults, cfg->faults);
  EXPECT_EQ(cfg->websearch.faults, cfg->faults);
  EXPECT_EQ(cfg->longflow.faults, cfg->faults);
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
  const std::string again_text = "[faults]\n" + cfg->faults.to_config_text();
  auto again = parse_experiment_config(again_text);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(cfg->faults, again->faults);
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
      "kind = fec\n"
      "fec_k = 12\n"
      "fec_m = 3\n"
      "fec_stream_window_bytes = 4000000\n"
      "fec_nack_delay_us = 250\n";
  std::string err;
  auto cfg = parse_experiment_config(text, &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->kind, ExperimentConfig::Kind::kWanFlow);
  EXPECT_EQ(cfg->wanflow.scheme, SchemeKind::kFec);
  EXPECT_EQ(cfg->wanflow.opt.fec_k, 12u);
  EXPECT_EQ(cfg->wanflow.opt.fec_m, 3u);
  EXPECT_EQ(cfg->wanflow.opt.fec_stream_window_bytes, 4'000'000u);
  EXPECT_EQ(cfg->wanflow.opt.fec_nack_delay, microseconds(250));
  // The scheme fans out to every experiment, like [faults] does.
  EXPECT_EQ(cfg->longflow.scheme, SchemeKind::kFec);
  EXPECT_EQ(cfg->longflow.opt.fec_k, 12u);
}

TEST(Config, SchemeSectionRoundTripsEveryScheme) {
  const std::pair<const char*, SchemeKind> kinds[] = {
      {"pfc", SchemeKind::kPfc},         {"irn", SchemeKind::kIrn},
      {"irn-ecmp", SchemeKind::kIrnEcmp}, {"mp-rdma", SchemeKind::kMpRdma},
      {"dcp", SchemeKind::kDcp},         {"cx5", SchemeKind::kCx5},
      {"timeout", SchemeKind::kTimeout}, {"rack-tlp", SchemeKind::kRackTlp},
      {"tcp", SchemeKind::kTcp},         {"fec", SchemeKind::kFec}};
  for (const auto& [name, k] : kinds) {
    const std::string text = std::string("[scheme]\nkind = ") + name +
                             "\nfec_k = 6\nfec_m = 2\nfec_stream_window_bytes = 123456\n"
                             "fec_nack_delay_us = 75\n";
    auto cfg = parse_experiment_config(text);
    ASSERT_TRUE(cfg.has_value()) << name;
    EXPECT_EQ(cfg->websearch.scheme, k) << name;
    EXPECT_EQ(cfg->websearch.opt.fec_k, 6u);
    EXPECT_EQ(cfg->websearch.opt.fec_m, 2u);
    EXPECT_EQ(cfg->websearch.opt.fec_stream_window_bytes, 123456u);
    EXPECT_EQ(cfg->websearch.opt.fec_nack_delay, microseconds(75));
  }
}

TEST(Config, SchemeSectionErrors) {
  std::string err;
  EXPECT_FALSE(parse_experiment_config("[scheme]\nkind = klingon\n", &err).has_value());
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
      "kind = fec\n"
      "fec_k = 8\n"
      "fec_m = 2\n";
  auto cfg = parse_experiment_config(text);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->wanflow.wan.regions, 2);
  EXPECT_EQ(cfg->wanflow.wan.wan_delay, milliseconds(2));
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
