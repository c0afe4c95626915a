// run_fuzz: seed-driven scenario fuzzer with oracle-armed runs and
// automatic shrinking.
//
//   run_fuzz --seed 1 --count 100 --out fuzz_repro.txt
//       Runs scenarios for seeds 1..100 (in parallel per DCP_JOBS).  On a
//       violation, shrinks the lowest failing seed's scenario to a minimal
//       repro, writes it to --out, and exits 1.
//
//   run_fuzz --replay fuzz_repro.txt
//       Re-runs a repro file, or any experiment config file (a repro is
//       one), with the oracle armed and reports its verdict (exit 1 on
//       violation).
//
//   run_fuzz --print 7
//       Dumps the scenario seed 7 generates, without running it.
//
//   run_fuzz --inject-bug dup-completion ...
//       Swaps in a DCP receiver with a deliberate duplicate-completion
//       defect (forces scheme=DCP).  --selftest uses this to prove the
//       fuzzer finds a seeded bug and shrinks it to <= 3 fault actions.
//
// Determinism: a seed fully determines its scenario and verdict; repro
// files contain no timestamps or host state, so the same failing seed
// yields a byte-identical repro under DCP_JOBS=1 and DCP_JOBS=8.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "check/broken.h"
#include "check/fuzzer.h"
#include "harness/config.h"
#include "harness/sweep.h"

using namespace dcp;

namespace {

struct Cli {
  std::uint64_t seed = 1;
  std::size_t count = 100;
  std::string out = "fuzz_repro.txt";
  std::string replay;
  std::string inject;
  bool selftest = false;
  long print_seed = -1;
  long budget_ms = 0;   // 0 = no wall-clock budget
  double at_time_us = -1;  // --at-time: time-travel point for --replay
};

int usage() {
  std::fprintf(stderr,
               "usage: run_fuzz [--seed N] [--count N] [--out FILE] [--replay FILE]\n"
               "                [--print SEED] [--inject-bug dup-completion]\n"
               "                [--time-budget-ms N] [--selftest]\n"
               "                [--at-time US]   (with --replay: pause the replay at\n"
               "                                 t=US microseconds, dump the world state\n"
               "                                 and recent event trace, prove the\n"
               "                                 snapshot round-trip, then finish)\n");
  return 2;
}

/// Arms the oracle and swaps in the --inject-bug double, which has no
/// text form, so a replayed repro rebuilds the world it came from.
WorldSpec armed(const Cli& cli, WorldSpec s) {
  s.oracle = true;
  if (cli.inject == "dup-completion") s.factory_override = std::make_shared<BrokenDcpFactory>();
  return s;
}

WorldSpec scenario_for(const Cli& cli, std::uint64_t seed) {
  WorldSpec s = generate_fuzz_scenario(seed);
  // The injected bug lives in a DCP receiver double; aim every scenario
  // at it rather than fuzzing schemes that cannot reach the defect.
  if (!cli.inject.empty()) s.scheme = SchemeKind::kDcp;
  return armed(cli, s);
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
}

/// Shrinks the violating scenario, writes the repro, prints the verdict.
int report_violation(const Cli& cli, const WorldSpec& s, const FuzzVerdict& v) {
  std::printf("seed %llu violated: %s\n", static_cast<unsigned long long>(s.seed),
              v.message.c_str());
  ShrinkStats st;
  const WorldSpec min = shrink_fuzz_scenario(s, &st);
  const FuzzVerdict mv = run_fuzz_scenario(min);
  std::printf("shrunk in %zu runs: %zu -> %zu fault actions, %zu -> %zu flows\n", st.runs,
              st.actions_before, st.actions_after, st.flows_before, st.flows_after);
  write_file(cli.out, write_fuzz_repro(min, mv));
  std::printf("repro written to %s\n", cli.out.c_str());
  return 1;
}

int run_batch(const Cli& cli) {
  SweepRunner pool;
  pool.set_progress(false);
  const auto t0 = std::chrono::steady_clock::now();

  // Batches of one pool-width each: parallel inside a batch, budget check
  // between batches.  Verdicts are keyed by seed, so the first failing
  // *seed* (not the first failing worker) is the one reported.
  const std::size_t batch = pool.jobs();
  std::size_t ran = 0;
  for (std::size_t base = 0; base < cli.count; base += batch) {
    const std::size_t n = std::min(batch, cli.count - base);
    auto verdicts = pool.run(n, [&](std::size_t i) {
      return run_fuzz_scenario(scenario_for(cli, cli.seed + base + i));
    });
    ran += n;
    for (std::size_t i = 0; i < n; ++i) {
      if (verdicts[i].violated) {
        return report_violation(cli, scenario_for(cli, cli.seed + base + i), verdicts[i]);
      }
    }
    if (cli.budget_ms > 0) {
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      if (ms >= cli.budget_ms) break;
    }
  }
  std::printf("%zu scenarios (seeds %llu..%llu): all invariants held\n", ran,
              static_cast<unsigned long long>(cli.seed),
              static_cast<unsigned long long>(cli.seed + ran - 1));
  return 0;
}

/// Time-travel debugging: rebuild the repro's world, run it to t (a
/// barrier-safe point), dump flow progress and the oracle's recent event
/// trace, prove the snapshot round-trip is bit-exact, then finish the run.
int run_time_travel(const Cli& cli, const WorldSpec& s) {
  const Time t = microseconds(cli.at_time_us);
  SimWorld w(s);
  w.run_to(t);

  std::printf("state of %s at t=%.9gus (%llu events executed):\n", cli.replay.c_str(),
              to_us(t), static_cast<unsigned long long>(w.events_processed()));
  for (const FlowRecord& r : w.net().records()) {
    const SenderTransport* snd = w.net().host(r.spec.src)->sender(r.spec.id);
    std::printf("  flow %llu: %llu bytes",
                static_cast<unsigned long long>(r.spec.id),
                static_cast<unsigned long long>(r.spec.bytes));
    if (r.tx_done >= 0) {
      std::printf(", complete (tx_done=%.9gus rx_done=%.9gus)", to_us(r.tx_done),
                  to_us(r.rx_done));
    } else if (snd != nullptr && snd->start_time() >= 0) {
      const SenderStats& st = snd->stats();
      std::printf(", in flight: sent=%llu retx=%llu timeouts=%llu ho=%llu",
                  static_cast<unsigned long long>(st.data_packets_sent),
                  static_cast<unsigned long long>(st.retransmitted_packets),
                  static_cast<unsigned long long>(st.timeouts),
                  static_cast<unsigned long long>(st.ho_received));
    } else {
      std::printf(", not started (start=%.9gus)", to_us(r.spec.start_time));
    }
    std::printf("\n");
  }
  if (w.oracle() != nullptr) {
    const std::string trace = w.oracle()->trace_slice(20);
    if (!trace.empty()) std::printf("recent events:\n%s", trace.c_str());
  }

  // Prove the round-trip: a fresh world restored from this point must
  // finish with a bit-identical digest and event count.
  SnapshotImage img;
  std::string err;
  if (!w.save(img, &err)) {
    std::printf("snapshot: unavailable (%s); continuing without round-trip check\n",
                err.c_str());
    w.run_until_done();
    const FuzzVerdict v = w.finalize_verdict();
    std::printf("verdict: %s\n", v.violated ? v.message.c_str() : "all invariants held");
    return v.violated ? 1 : 0;
  }
  std::printf("snapshot: %zu state bytes at t=%.9gus\n", img.state.size(), to_us(img.at));

  SimWorld resumed(s);
  if (!resumed.restore(img, &err)) {
    std::fprintf(stderr, "run_fuzz: restore failed: %s\n", err.c_str());
    return 2;
  }
  w.run_until_done();
  resumed.run_until_done();
  const WorldDigest a = w.digest();
  const WorldDigest b = resumed.digest();
  if (a != b) {
    std::fprintf(stderr,
                 "run_fuzz: NON-DETERMINISTIC RESUME: digest %016llx/%llu vs %016llx/%llu\n",
                 static_cast<unsigned long long>(a.value),
                 static_cast<unsigned long long>(a.events),
                 static_cast<unsigned long long>(b.value),
                 static_cast<unsigned long long>(b.events));
    return 2;
  }
  std::printf("resume check: digest %016llx, %llu events — restored run bit-identical\n",
              static_cast<unsigned long long>(a.value),
              static_cast<unsigned long long>(a.events));
  const FuzzVerdict v = resumed.finalize_verdict();
  std::printf("verdict: %s\n", v.violated ? v.message.c_str() : "all invariants held");
  return v.violated ? 1 : 0;
}

int run_replay(const Cli& cli) {
  std::string err;
  const auto cfg = load_experiment_config(cli.replay, &err);
  if (!cfg) {
    std::fprintf(stderr, "run_fuzz: %s: %s\n", cli.replay.c_str(), err.c_str());
    return 2;
  }
  const WorldSpec s = armed(cli, cfg->spec);
  if (cli.at_time_us >= 0) return run_time_travel(cli, s);
  const FuzzVerdict v = run_fuzz_scenario(s);
  if (!v.violated) {
    std::printf("replay of %s: all invariants held\n", cli.replay.c_str());
    return 0;
  }
  std::printf("replay of %s: %s\n", cli.replay.c_str(), v.message.c_str());
  if (!v.trace.empty()) std::printf("%s", v.trace.c_str());
  return 1;
}

/// Proves the pipeline end to end: a seeded duplicate-completion bug is
/// found by fuzzing, shrunk to <= 3 fault actions, and the written repro
/// replays to the same violation.
int run_selftest(Cli cli) {
  cli.inject = "dup-completion";

  WorldSpec found;
  FuzzVerdict fv;
  bool hit = false;
  for (std::uint64_t seed = cli.seed; seed < cli.seed + 200; ++seed) {
    const WorldSpec s = scenario_for(cli, seed);
    const FuzzVerdict v = run_fuzz_scenario(s);
    if (v.violated) {
      found = s;
      fv = v;
      hit = true;
      break;
    }
  }
  if (!hit) {
    std::fprintf(stderr, "selftest: injected bug not found in 200 seeds\n");
    return 1;
  }
  if (fv.invariant != "exactly-once-completion") {
    std::fprintf(stderr, "selftest: expected exactly-once-completion, got %s\n",
                 fv.invariant.c_str());
    return 1;
  }
  std::printf("selftest: seed %llu trips the injected bug (%s)\n",
              static_cast<unsigned long long>(found.seed), fv.invariant.c_str());

  ShrinkStats st;
  const WorldSpec min = shrink_fuzz_scenario(found, &st);
  std::printf("selftest: shrunk in %zu runs to %zu fault actions, %zu flows\n", st.runs,
              st.actions_after, st.flows_after);
  if (min.faults.actions.size() > 3) {
    std::fprintf(stderr, "selftest: shrunk plan still has %zu actions (> 3)\n",
                 min.faults.actions.size());
    return 1;
  }

  const FuzzVerdict mv = run_fuzz_scenario(min);
  const std::string repro = write_fuzz_repro(min, mv);
  write_file(cli.out, repro);
  std::string err;
  const auto parsed = parse_experiment_config(repro, &err);
  if (!parsed) {
    std::fprintf(stderr, "selftest: repro does not parse back: %s\n", err.c_str());
    return 1;
  }
  const WorldSpec replayed = armed(cli, parsed->spec);
  if (!(replayed == min)) {
    std::fprintf(stderr, "selftest: repro round-trip changed the scenario\n");
    return 1;
  }
  const FuzzVerdict rv = run_fuzz_scenario(replayed);
  if (!rv.violated || rv.invariant != fv.invariant) {
    std::fprintf(stderr, "selftest: repro replay did not reproduce %s\n", fv.invariant.c_str());
    return 1;
  }
  std::printf("selftest: repro (%s) replays to the same violation — PASS\n", cli.out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--seed") {
      const char* v = next();
      if (!v) return usage();
      cli.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--count") {
      const char* v = next();
      if (!v) return usage();
      cli.count = std::strtoull(v, nullptr, 10);
    } else if (a == "--out") {
      const char* v = next();
      if (!v) return usage();
      cli.out = v;
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return usage();
      cli.replay = v;
    } else if (a == "--inject-bug") {
      const char* v = next();
      if (!v || std::strcmp(v, "dup-completion") != 0) return usage();
      cli.inject = v;
    } else if (a == "--print") {
      const char* v = next();
      if (!v) return usage();
      cli.print_seed = std::strtol(v, nullptr, 10);
    } else if (a == "--time-budget-ms") {
      const char* v = next();
      if (!v) return usage();
      cli.budget_ms = std::strtol(v, nullptr, 10);
    } else if (a == "--at-time") {
      const char* v = next();
      if (!v) return usage();
      cli.at_time_us = std::strtod(v, nullptr);
    } else if (a == "--selftest") {
      cli.selftest = true;
    } else {
      return usage();
    }
  }

  if (cli.print_seed >= 0) {
    const WorldSpec s = scenario_for(cli, static_cast<std::uint64_t>(cli.print_seed));
    FuzzVerdict none;
    std::printf("%s", write_fuzz_repro(s, none).c_str());
    return 0;
  }
  if (cli.selftest) return run_selftest(cli);
  if (!cli.replay.empty()) return run_replay(cli);
  if (cli.count == 0) return usage();
  return run_batch(cli);
}
