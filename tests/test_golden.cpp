// Golden-digest regression corpus: a fixed matrix of scenarios (every
// scheme, clean and faulted) is pinned to the WorldDigest values recorded
// in tests/golden/digests.txt.  ANY behavioural change to the simulator —
// packet handling, congestion control, fault injection, event ordering —
// shows up here as a digest drift and must be explained: either it is a
// bug, or the change is intentional and the corpus is regenerated with
//
//   DCP_UPDATE_GOLDEN=1 ./test_golden
//
// and the diff of tests/golden/digests.txt is reviewed in the same commit.
// Digests are computed with force_shards=1 so the corpus is independent of
// the ambient DCP_SHARDS (sharded digests are separately proven identical
// in test_shard_digest / test_snapshot).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.h"
#include "harness/checkpoint.h"

namespace dcp {
namespace {

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kPfc,     SchemeKind::kIrn,     SchemeKind::kIrnEcmp,
    SchemeKind::kMpRdma,  SchemeKind::kDcp,     SchemeKind::kCx5,
    SchemeKind::kTimeout, SchemeKind::kRackTlp, SchemeKind::kFec,
    SchemeKind::kTcp};

FuzzScenario clean_scenario(SchemeKind k) {
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
  return s;
}

FuzzScenario faulted_scenario(SchemeKind k) {
  FuzzScenario s = clean_scenario(k);
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
  return s;
}

struct GoldenEntry {
  std::string name;
  WorldDigest d;
};

std::vector<GoldenEntry> compute_matrix() {
  std::vector<GoldenEntry> out;
  auto run = [&](const std::string& name, const FuzzScenario& s) {
    WorldSpec ws = fuzz_world_spec(s, FuzzOptions{});
    ws.force_shards = 1;  // corpus is the serial reference digest
    SimWorld w(ws);
    w.run_until_done();
    out.push_back({name, w.digest()});
  };
  for (SchemeKind k : kAllSchemes) {
    run(std::string(scheme_name(k)) + "/clean", clean_scenario(k));
    run(std::string(scheme_name(k)) + "/faulted", faulted_scenario(k));
  }
  // A pair of generated fuzz scenarios pins the generator itself too.
  for (std::uint64_t seed : {7u, 1234u}) {
    std::ostringstream name;
    name << "fuzz/seed-" << seed;
    run(name.str(), generate_fuzz_scenario(seed));
  }
  return out;
}

std::string corpus_path() { return std::string(DCP_GOLDEN_DIR) + "/digests.txt"; }

std::map<std::string, WorldDigest> load_corpus(bool* ok) {
  std::map<std::string, WorldDigest> out;
  std::ifstream in(corpus_path());
  *ok = in.good();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    std::uint64_t events = 0;
    if (!(ls >> name >> hex >> events)) {
      *ok = false;
      return out;
    }
    WorldDigest d;
    d.value = std::strtoull(hex.c_str(), nullptr, 16);
    d.events = events;
    out[name] = d;
  }
  return out;
}

void write_corpus(const std::vector<GoldenEntry>& matrix) {
  std::ofstream out(corpus_path());
  ASSERT_TRUE(out.good()) << "cannot write " << corpus_path();
  out << "# Golden WorldDigest corpus — regenerate with DCP_UPDATE_GOLDEN=1 "
         "./test_golden\n"
      << "# name digest(hex) events\n";
  char hex[32];
  for (const GoldenEntry& e : matrix) {
    std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)e.d.value);
    out << e.name << " " << hex << " " << e.d.events << "\n";
  }
}

TEST(Golden, DigestMatrixMatchesCorpus) {
  const std::vector<GoldenEntry> matrix = compute_matrix();
  for (const GoldenEntry& e : matrix) {
    EXPECT_GT(e.d.events, 0u) << e.name << ": scenario ran no events";
  }

  if (std::getenv("DCP_UPDATE_GOLDEN") != nullptr) {
    write_corpus(matrix);
    GTEST_LOG_(INFO) << "regenerated " << corpus_path() << " with " << matrix.size()
                     << " entries";
    return;
  }

  bool ok = false;
  const std::map<std::string, WorldDigest> corpus = load_corpus(&ok);
  ASSERT_TRUE(ok) << "missing or malformed corpus at " << corpus_path()
                  << " — run DCP_UPDATE_GOLDEN=1 ./test_golden once and commit it";
  ASSERT_EQ(corpus.size(), matrix.size())
      << "corpus entry count drifted — regenerate with DCP_UPDATE_GOLDEN=1 and "
         "review the diff";

  for (const GoldenEntry& e : matrix) {
    auto it = corpus.find(e.name);
    ASSERT_NE(it, corpus.end()) << "no golden entry for " << e.name;
    EXPECT_EQ(it->second.value, e.d.value)
        << "UNEXPLAINED DIGEST DRIFT in " << e.name << ": golden "
        << std::hex << it->second.value << ", got " << e.d.value << std::dec
        << ".  If this change is intentional, regenerate tests/golden/digests.txt "
           "with DCP_UPDATE_GOLDEN=1 and commit the diff with an explanation.";
    EXPECT_EQ(it->second.events, e.d.events)
        << "event-count drift in " << e.name << " (golden " << it->second.events
        << ", got " << e.d.events << ")";
  }
}

// The corpus digests are also exactly what the snapshot digest reports for
// a resumed run — drift in one and not the other would mean the
// checkpoint path diverged from the plain path.
TEST(Golden, ResumedRunsMatchCorpusDigests) {
  for (SchemeKind k : {SchemeKind::kDcp, SchemeKind::kIrn}) {
    WorldSpec ws = fuzz_world_spec(faulted_scenario(k), FuzzOptions{});
    ws.force_shards = 1;
    SimWorld cold(ws);
    cold.run_until_done();

    SimWorld a(ws);
    a.run_to(microseconds(60));
    SnapshotImage img;
    std::string err;
    ASSERT_TRUE(a.save(img, &err)) << err;
    SimWorld b(ws);
    ASSERT_TRUE(b.restore(img, &err)) << err;
    b.run_until_done();
    EXPECT_TRUE(cold.digest() == b.digest()) << scheme_name(k);
  }
}

}  // namespace
}  // namespace dcp
