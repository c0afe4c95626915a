#include "harness/world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <typeinfo>

#include "harness/config.h"
#include "harness/sweep.h"
#include "topo/dumbbell.h"
#include "workload/flowgen.h"

namespace dcp {

namespace {

// Feeds a record into the digest as 64-bit lanes.  All digested structs
// are u64/i64/double aggregates, so there is no padding to leak.
template <typename T>
void hash_pod(Fnv64& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0);
  for (std::size_t i = 0; i < sizeof v; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, reinterpret_cast<const std::uint8_t*>(&v) + i, 8);
    h.u64(lane);
  }
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

WorldSpec::Shape WorldSpec::shape() const {
  switch (topo) {
    case TopoKind::kTestbed:
      return {2 * testbed.hosts_per_switch, testbed.hosts_per_switch, 2, testbed.host_link};
    case TopoKind::kClos:
      return {clos.num_hosts(), clos.num_hosts() - clos.hosts_per_leaf, clos.leaves, clos.link};
    case TopoKind::kFatTree:
      return {fattree.hosts(), fattree.hosts() - fattree.hosts() / fattree.pods(), fattree.pods(),
              fattree.link};
    case TopoKind::kWan:
      return {wan.regions * wan.hosts_per_region, wan.hosts_per_region, wan.regions, wan.host_link};
    case TopoKind::kStar:
      return {star_hosts, star_hosts / 2, 1, Bandwidth::gbps(100)};
    case TopoKind::kBackToBack:
      return {2, 1, 1, Bandwidth::gbps(100)};
  }
  return {};
}

std::string WorldSpec::identity() const {
  // The text, then the fields that have no text form, in this order.  The
  // buffer size and incast bursts also have keys, written only off their
  // defaults; they stay listed so a world that leaves them at their
  // defaults keeps its fingerprint.
  std::string out = world_text(*this) + "#";
  for (const std::int64_t v :
       {static_cast<std::int64_t>(topo), std::int64_t{testbed.hosts_per_switch},
        testbed.host_link.ps_per_byte, testbed.host_link_delay, testbed.cross_link_delay,
        clos.link.ps_per_byte, clos.host_link_delay, fattree.link.ps_per_byte, fattree.link_delay,
        wan.host_link.ps_per_byte, wan.host_link_delay, wan.wan_link.ps_per_byte,
        std::int64_t{sport_base}, opt.line_rate.ps_per_byte, opt.base_rtt,
        static_cast<std::int64_t>(opt.buffer_bytes), opt.rto_high, opt.rto_low,
        opt.dcp_msg_timeout, std::int64_t{incast.bursts}, incast.start,
        static_cast<std::int64_t>(incast.seed), std::int64_t{incast.victim_index},
        std::int64_t{shards}, std::int64_t{oracle}}) {
    out += " " + std::to_string(v);
  }
  for (const Bandwidth b : testbed.cross_links) out += " " + std::to_string(b.ps_per_byte);
  return out + " " + (factory_override ? typeid(*factory_override).name() : "scheme") + "\n";
}

std::uint64_t WorldSpec::fingerprint() const {
  Fnv64 h;
  for (char c : identity()) h.u64(static_cast<unsigned char>(c));
  return h.value();
}

SimWorld::SimWorld(const WorldSpec& spec) : spec_(spec) {
  // Every world is built in this one order; any change to it breaks the
  // rebuild's bit-identity with the run an image was saved from.
  const WorldSpec& s = spec_;

  // 1. The shard group, over the topology's partition units.  A
  // collective world keeps one unit, and a plan with an effect runs
  // serially (see docs/architecture.md); asking either for more shards
  // would run a different world, so it is refused in every build.
  const WorldSpec::Shape shape = s.shape();
  const int units = s.groups > 0 ? 1 : shape.units;
  if (s.shards > 1 && (s.groups > 0 || s.faults.has_effect())) {
    std::fprintf(stderr, "SimWorld: shards = %d refused: %s runs on one shard\n", s.shards,
                 s.groups > 0 ? "a collective world" : "a fault plan with an effect");
    std::abort();
  }
  shards_ = std::make_unique<ShardGroup>(
      s.shards > 0 ? s.shards : resolve_shards(units, s.faults.has_effect()));
  log_ = std::make_unique<Logger>(LogLevel::kError);
  net_ = std::make_unique<Network>(*shards_, *log_);
  net_->set_sport_base(s.sport_base);

  // 2-3. The topology under the scheme's switch config, then the scheme.
  SchemeOptions opt = s.opt;
  WanParams wan = s.wan;
  if (s.topo == TopoKind::kWan) {
    // Base RTT, RTOs and the NACK delay follow the WAN round trip, not the
    // datacenter defaults (a 320 us RTO under a 50 ms RTT would retransmit
    // the whole flow many times over before the first ACK).
    const Time rtt = 2 * (2 * wan.host_link_delay + wan.wan_delay);
    opt.base_rtt = rtt;
    opt.rto_high = 2 * rtt + microseconds(320);
    opt.rto_low = rtt / 2 + microseconds(100);
    opt.dcp_msg_timeout = 2 * rtt + milliseconds(1);
    opt.line_rate = wan.wan_link;
  }
  const SchemeSetup setup = make_scheme(s.scheme, opt);
  switch (s.topo) {
    case TopoKind::kTestbed: {
      TestbedParams tb = s.testbed;
      tb.sw = setup.sw;
      TestbedTopology topo = build_testbed(*net_, tb);
      // Loss is injected at switch 1 only (the paper manipulates one switch).
      topo.sw1->config().inject_loss_rate = s.loss_rate;
      hosts_ = topo.hosts;
      break;
    }
    case TopoKind::kClos: {
      ClosParams clos = s.clos;
      clos.sw = setup.sw;
      hosts_ = build_clos(*net_, clos).hosts;
      break;
    }
    case TopoKind::kFatTree: {
      FatTreeParams ft = s.fattree;
      ft.sw = setup.sw;
      hosts_ = build_fattree(*net_, ft).hosts;
      break;
    }
    case TopoKind::kWan: {
      wan.sw = setup.sw;
      wan.wan_seed = s.seed;
      // The long pipe must fit in the region switch: size buffers to the
      // BDP (a 25 ms 100G span is ~312 MB of in-flight data per direction).
      const std::uint64_t bdp = bdp_bytes(wan.wan_link, 2 * wan.wan_delay);
      wan.sw.buffer_bytes = std::max(wan.sw.buffer_bytes, 2 * bdp);
      wan.sw.max_data_queue_bytes = std::max(wan.sw.max_data_queue_bytes, 2 * bdp);
      wan_ = build_wan(*net_, wan);
      hosts_ = wan_.hosts;
      break;
    }
    case TopoKind::kStar:
      hosts_ = build_star(*net_, s.star_hosts, setup.sw).hosts;
      break;
    case TopoKind::kBackToBack: {
      const BackToBack cable = build_back_to_back(*net_);
      hosts_ = {cable.a, cable.b};
      break;
    }
  }
  apply_scheme(*net_, setup);
  if (s.factory_override) net_->set_factory(s.factory_override);

  // 4. The workload: explicit flows, Poisson, incast, collectives.
  for (const WorldFlow& f : s.flows) {
    FlowSpec fs;
    fs.src = hosts_.at(static_cast<std::size_t>(f.src))->id();
    fs.dst = hosts_.at(static_cast<std::size_t>(s.dst_of(f)))->id();
    fs.bytes = f.bytes;
    fs.msg_bytes = f.msg_bytes;
    fs.start_time = f.start;
    net_->start_flow(fs);
  }
  if (s.poisson_flows > 0) {
    FlowGenParams fg;
    fg.load = s.load;
    fg.host_rate = shape.rate;
    fg.num_flows = s.poisson_flows;
    fg.seed = s.seed;
    fg.msg_bytes = kFlowMsgBytes;
    generate_poisson_flows(
        *net_, hosts_,
        s.dist == WorkloadDist::kDataMining ? SizeDist::datamining() : SizeDist::websearch(), fg);
  }
  if (s.with_incast) {
    IncastParams ip = s.incast;
    ip.host_rate = shape.rate;
    ip.msg_bytes = kFlowMsgBytes;
    generate_incast(*net_, hosts_, ip);
  }
  for (int g = 0; g < s.groups; ++g) {
    CollectiveParams cp;
    cp.total_bytes = s.collective_bytes;
    cp.msg_bytes = kFlowMsgBytes;
    cp.group_tag = g;
    for (int m = 0; m < s.members; ++m) {
      // Member m of group g is host m * groups + g, interleaving groups
      // across racks like a real job placement would.
      const std::size_t idx = (static_cast<std::size_t>(m) * s.groups + g) % hosts_.size();
      cp.members.push_back(hosts_[idx]->id());
    }
    if (s.collective == CollectiveKind::kAllReduce) {
      collectives_.push_back(std::make_unique<RingAllReduce>(*net_, cp));
    } else {
      collectives_.push_back(std::make_unique<AllToAll>(*net_, cp));
    }
  }

  // 5-6. The oracle, then the injector.  A plan without effect arms
  // nothing and draws nothing, so the injector is event-stream-neutral.
  if (s.oracle) oracle_ = std::make_unique<InvariantOracle>(*net_);
  inj_ = std::make_unique<FaultInjector>(*net_, s.faults,
                                         s.injector_seed.value_or(s.seed ^ kInjectorSeedTag));
}

FuzzVerdict SimWorld::finalize_verdict() {
  FuzzVerdict v;
  v.all_complete = net_->all_flows_done();
  if (oracle_ == nullptr) return v;
  oracle_->finalize();
  v.violated = !oracle_->ok();
  v.num_violations = oracle_->violations().size();
  if (const InvariantViolation* first = oracle_->first()) {
    v.invariant = first->invariant;
    v.at = first->at;
    v.message = oracle_->summary();
    v.trace = oracle_->trace_slice();
  }
  return v;
}

std::string SimWorld::snapshot_refusal() const {
  if (spec_.scheme == SchemeKind::kTcp) {
    return std::string("scheme not snapshottable: ") + scheme_name(spec_.scheme);
  }
  if (!collectives_.empty()) return "collective member state is in no checkpoint";
  if (!wan_.wire_faults.empty()) return "WAN wire-loss streams are in no checkpoint";
  return "";
}

bool SimWorld::save(SnapshotImage& out, std::string* error) {
  const std::string why = snapshot_refusal();
  if (!why.empty()) return fail(error, why);
  out = SnapshotImage{};
  out.fingerprint = spec_.fingerprint();
  out.shards = static_cast<std::uint32_t>(shards_->size());
  out.at = at_;
  out.next_seq = shards_->sim(0).snapshot_next_seq();
  out.clocks.resize(static_cast<std::size_t>(shards_->size()));
  for (int i = 0; i < shards_->size(); ++i) {
    const Simulator& s = shards_->sim(i);
    SnapshotClock& c = out.clocks[static_cast<std::size_t>(i)];
    c.now = s.now();
    c.events = s.events_processed();
    c.cur_time = s.current_event_time();
    c.cur_seq = s.current_event_seq();
  }

  StateIO io = StateIO::saver(out.state);
  net_->checkpoint(io);
  inj_->checkpoint(io);
  if (oracle_ != nullptr) oracle_->checkpoint(io);
  if (!io.ok()) return fail(error, "snapshot save: " + io.error());
  return true;
}

bool SimWorld::restore(const SnapshotImage& img, std::string* error) {
  const std::string why = snapshot_refusal();
  if (!why.empty()) return fail(error, why);
  if (img.fingerprint != spec_.fingerprint()) {
    return fail(error, "snapshot restore: spec fingerprint mismatch");
  }
  if (static_cast<int>(img.shards) != shards_->size()) {
    return fail(error, "snapshot restore: shard count mismatch");
  }
  if (img.clocks.size() != static_cast<std::size_t>(shards_->size())) {
    return fail(error, "snapshot restore: clock shape mismatch");
  }

  // Rebuild-side prep, mirroring what the saved run had already done by
  // its snapshot point: flip shard-run mode on (the saved run's first
  // window did), drop the start events of flows that had already started
  // (their effects are overlaid below), and re-execute the fault timeline
  // so pointer-identity structures (hook registrations, ChannelFault
  // records) exist in creation order before their values are overlaid.
  net_->prepare_shard_run();
  net_->cancel_started_flows(img.at);
  inj_->replay_to(img.at);

  StateIO io = StateIO::loader(img.state);
  net_->checkpoint(io);
  inj_->checkpoint(io);
  if (oracle_ != nullptr) oracle_->checkpoint(io);
  if (!io.ok()) return fail(error, "snapshot restore: " + io.error());
  if (io.bytes_consumed() != img.state.size()) {
    return fail(error, "snapshot restore: trailing state bytes");
  }

  for (int i = 0; i < shards_->size(); ++i) {
    Simulator& s = shards_->sim(i);
    const SnapshotClock& c = img.clocks[static_cast<std::size_t>(i)];
    s.restore_clock(c.now, c.events);
    s.restore_current_event(c.cur_time, c.cur_seq);
    s.settle_deadline_top();
  }
  // One shared allocator across the group: restore it once.
  shards_->sim(0).restore_next_seq(img.next_seq);
  at_ = img.at;
  return true;
}

WorldDigest SimWorld::digest() const {
  Fnv64 h;
  for (const FlowRecord& r : net_->records()) {
    h.i64(r.rx_done);
    h.i64(r.tx_done);
    hash_pod(h, r.sender);
    hash_pod(h, r.receiver);
  }
  hash_pod(h, net_->total_switch_stats());
  const std::uint64_t ev = events_processed();
  h.u64(ev);
  WorldDigest d;
  d.value = h.value();
  d.events = ev;
  return d;
}

}  // namespace dcp
