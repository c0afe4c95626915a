#pragma once
// Simulator-core performance accounting: how fast the substrate itself
// chews through events, independent of what the experiment measures.
// Every experiment readout fills one of these so regressions in the event
// core show up in any experiment, and bench_core emits them as
// BENCH_core.json for before/after comparisons.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dcp {

class Simulator;
class ShardGroup;

/// Events processed and wall-clock time of one simulation run, plus the
/// run's thread-local allocation behaviour (PacketPool handouts and the
/// EventQueue slab) so per-worker allocation is observable when trials
/// fan out across a sweep pool.
struct CorePerf {
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  std::uint64_t pool_acquires = 0;  // PacketPool handouts during the window
  std::size_t pool_slots = 0;       // executing thread's pool capacity after
  std::size_t event_slots = 0;      // the run's EventQueue slab capacity
  // Slab-arena footprint after the window (packet, lane and event
  // records over every shard — see ShardGroup::arena_bytes) and the
  // process's peak RSS, so bench_core can gate memory alongside ev/s.
  std::uint64_t arena_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;

  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events_processed) / wall_seconds : 0.0;
  }
};

/// Measures a window of simulation: construct before run(), call finish()
/// after — on the same thread, since the PacketPool counters it samples
/// are thread-local.  Captures deltas so nested/partial runs compose.
class CorePerfTimer {
 public:
  explicit CorePerfTimer(const Simulator& sim);
  /// Group-wide window: events_processed sums over every shard; the pool
  /// and slab counters remain the caller thread's (shard 0's) view, since
  /// other shards' pools are thread-local to their workers.
  explicit CorePerfTimer(const ShardGroup& group);

  /// Stops the clock and returns the window's CorePerf.
  CorePerf finish() const;

 private:
  const Simulator* sim_ = nullptr;
  const ShardGroup* group_ = nullptr;
  std::uint64_t events_at_start_;
  std::uint64_t pool_acquires_at_start_;
  std::chrono::steady_clock::time_point wall_start_;
};

/// Thread-safe CorePerf accumulator: trials finishing on different sweep
/// workers add() concurrently; total() is the suite-wide view.  Events,
/// wall seconds (aggregate busy time, not elapsed) and pool acquires are
/// summed; slot capacities take the max, since trials on the same worker
/// share one thread-local pool and summing would double-count it.
class CorePerfAggregator {
 public:
  void add(const CorePerf& p);
  CorePerf total() const;
  std::uint64_t trials() const;

 private:
  mutable std::mutex m_;
  CorePerf total_;
  std::uint64_t trials_ = 0;
};

/// One named measurement in BENCH_core.json, optionally with the baseline
/// (seed) throughput recorded alongside for a speedup column.
struct CorePerfEntry {
  std::string name;
  CorePerf perf;
  double baseline_events_per_sec = 0.0;  // 0 = no recorded baseline
  // Execution-environment metadata for parallel measurements (0 = serial
  // entry, fields omitted from the JSON).  A sharded number is meaningless
  // without knowing how many event cores ran and how much hardware the box
  // offered, so the committed BENCH_core.json records both.
  unsigned shards = 0;
  unsigned hardware_threads = 0;
};

/// Serial-vs-parallel suite measurement: the same sweep run with one job
/// and with the full pool ("suite_parallel" in BENCH_core.json).
struct SuiteParallelEntry {
  std::size_t trials = 0;
  unsigned jobs = 0;
  double serial_wall_seconds = 0.0;
  double parallel_wall_seconds = 0.0;
  bool bit_identical = false;  // parallel results matched serial exactly

  double speedup() const {
    return parallel_wall_seconds > 0.0 ? serial_wall_seconds / parallel_wall_seconds : 0.0;
  }
};

/// Writes entries as a JSON document ({"benchmarks": [...]}), with an
/// optional "suite_parallel" object.  Returns false if the file could not
/// be opened.
bool export_core_perf_json(const std::string& path, const std::vector<CorePerfEntry>& entries,
                           const SuiteParallelEntry* suite = nullptr);

}  // namespace dcp
