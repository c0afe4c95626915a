#include "harness/checkpoint.h"

#include <cstring>

#include "harness/sweep.h"
#include "topo/fattree.h"

namespace dcp {

namespace {

// Feeds a trivially-copyable record into the digest as 64-bit lanes
// (tail bytes zero-padded).  All digested structs are u64/i64/double
// aggregates, so there is no padding to leak.
template <typename T>
void hash_pod(Fnv64& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  std::size_t i = 0;
  for (; i + 8 <= sizeof v; i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, p + i, 8);
    h.u64(lane);
  }
  if (i < sizeof v) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, p + i, sizeof v - i);
    h.u64(lane);
  }
}

}  // namespace

std::uint64_t WorldSpec::fingerprint() const {
  Fnv64 h;
  const FuzzScenario& s = scenario;
  h.u64(s.seed);
  h.u64(static_cast<std::uint64_t>(s.scheme));
  h.u64(static_cast<std::uint64_t>(s.spines));
  h.u64(static_cast<std::uint64_t>(s.leaves));
  h.u64(static_cast<std::uint64_t>(s.hosts_per_leaf));
  // Appended past the CLOS fields: 0 for every pre-fat-tree spec, so CLOS
  // fingerprints shift uniformly and never collide with fat-tree ones.
  h.u64(static_cast<std::uint64_t>(s.fattree_k));
  h.i64(s.max_time);
  h.u64(s.flows.size());
  for (const FuzzFlow& f : s.flows) {
    h.u64(static_cast<std::uint64_t>(f.src));
    h.u64(static_cast<std::uint64_t>(f.dst));
    h.u64(f.bytes);
    h.u64(f.msg_bytes);
    h.i64(f.start);
  }
  h.u64(s.faults.actions.size());
  for (const FaultAction& a : s.faults.actions) {
    h.u64(static_cast<std::uint64_t>(a.kind));
    h.i64(a.at);
    h.i64(a.duration);
    h.u64(a.sw);
    h.u64(a.port);
    h.f64(a.rate);
    h.f64(a.frac);
    h.u64(a.drop_in_flight ? 1 : 0);
  }
  h.u64(injector_seed);
  h.u64(factory_override != nullptr ? 1 : 0);
  h.u64(oracle ? 1 : 0);
  return h.value();
}

SimWorld::SimWorld(const WorldSpec& spec) : spec_(spec) {
  // Every world is built in this one order; any change to it breaks the
  // rebuild's bit-identity with the run an image was saved from.
  const FuzzScenario& s = spec_.scenario;
  // The partition unit is a pod on a fat-tree and a leaf group on a Clos.
  const int units = s.fattree_k > 0 ? s.fattree_k : s.leaves;
  shards_ = std::make_unique<ShardGroup>(
      spec_.force_shards > 0 ? spec_.force_shards
                             : resolve_shards(units, s.faults.has_effect()));
  log_ = std::make_unique<Logger>(LogLevel::kError);
  net_ = std::make_unique<Network>(*shards_, *log_);

  SchemeSetup setup = make_scheme(s.scheme);
  if (s.fattree_k > 0) {
    FatTreeParams ft;
    ft.k = s.fattree_k;
    ft.sw = setup.sw;
    hosts_ = build_fattree(*net_, ft).hosts;
  } else {
    ClosParams clos;
    clos.spines = s.spines;
    clos.leaves = s.leaves;
    clos.hosts_per_leaf = s.hosts_per_leaf;
    clos.sw = setup.sw;
    hosts_ = build_clos(*net_, clos).hosts;
  }
  apply_scheme(*net_, setup);
  if (spec_.factory_override) net_->set_factory(spec_.factory_override);

  for (const FuzzFlow& f : s.flows) {
    FlowSpec fs;
    fs.src = hosts_.at(static_cast<std::size_t>(f.src))->id();
    fs.dst = hosts_.at(static_cast<std::size_t>(f.dst))->id();
    fs.bytes = f.bytes;
    fs.msg_bytes = f.msg_bytes;
    fs.start_time = f.start;
    net_->start_flow(fs);
  }

  if (spec_.oracle) oracle_ = std::make_unique<InvariantOracle>(*net_);
  // Unconditional: a plan without effect arms nothing and draws nothing,
  // so the injector is event-stream-neutral and needs no special case.
  inj_ = std::make_unique<FaultInjector>(*net_, s.faults, spec_.injector_seed);
}

SimWorld::~SimWorld() = default;

std::uint64_t SimWorld::events_processed() const {
  return shards_->events_processed();
}

void SimWorld::run_to(Time t) {
  at_ = net_->run_to_paused(t, spec_.scenario.max_time);
}

void SimWorld::run_until_done() { net_->run_until_done(spec_.scenario.max_time); }

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

bool SimWorld::save(SnapshotImage& out, std::string* error) {
  auto fail = [&](const std::string& m) {
    if (error != nullptr) *error = m;
    return false;
  };
  if (!snapshot_supported(spec_.scenario.scheme)) {
    return fail(std::string("scheme not snapshottable: ") + scheme_name(spec_.scenario.scheme));
  }
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
  if (!io.ok()) return fail("snapshot save: " + io.error());
  return true;
}

bool SimWorld::restore(const SnapshotImage& img, std::string* error) {
  auto fail = [&](const std::string& m) {
    if (error != nullptr) *error = m;
    return false;
  };
  if (!snapshot_supported(spec_.scenario.scheme)) {
    return fail(std::string("scheme not snapshottable: ") + scheme_name(spec_.scenario.scheme));
  }
  if (img.fingerprint != spec_.fingerprint()) {
    return fail("snapshot restore: spec fingerprint mismatch");
  }
  if (static_cast<int>(img.shards) != shards_->size()) {
    return fail("snapshot restore: shard count mismatch");
  }
  if (img.clocks.size() != static_cast<std::size_t>(shards_->size())) {
    return fail("snapshot restore: clock shape mismatch");
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
  if (!io.ok()) return fail("snapshot restore: " + io.error());
  if (io.bytes_consumed() != img.state.size()) {
    return fail("snapshot restore: trailing state bytes");
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
