#include "stats/core_perf.h"

#include <algorithm>
#include <cstdio>

#include <sys/resource.h>

#include "net/packet_pool.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace dcp {

namespace {

std::uint64_t peak_rss_bytes() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace

CorePerfTimer::CorePerfTimer(const ShardGroup& group)
    : group_(&group),
      events_at_start_(group.events_processed()),
      pool_acquires_at_start_(PacketPool::local().stats().acquires),
      wall_start_(std::chrono::steady_clock::now()) {}

CorePerf CorePerfTimer::finish() const {
  const PacketPool::Stats pool = PacketPool::local().stats();
  CorePerf p;
  p.events_processed = group_->events_processed() - events_at_start_;
  p.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_).count();
  p.pool_acquires = pool.acquires - pool_acquires_at_start_;
  p.pool_slots = pool.slots;
  p.event_slots = group_->sim(0).event_slots_allocated();
  // Absolute footprints, not deltas: slabs never shrink, so the post-run
  // value IS the run's high-water mark (workers published theirs at the
  // last barrier).
  p.arena_bytes = group_->arena_bytes();
  p.peak_rss_bytes = peak_rss_bytes();
  return p;
}

void CorePerfAggregator::add(const CorePerf& p) {
  std::lock_guard<std::mutex> lk(m_);
  total_.events_processed += p.events_processed;
  total_.wall_seconds += p.wall_seconds;
  total_.pool_acquires += p.pool_acquires;
  total_.pool_slots = std::max(total_.pool_slots, p.pool_slots);
  total_.event_slots = std::max(total_.event_slots, p.event_slots);
  total_.arena_bytes = std::max(total_.arena_bytes, p.arena_bytes);
  total_.peak_rss_bytes = std::max(total_.peak_rss_bytes, p.peak_rss_bytes);
  ++trials_;
}

CorePerf CorePerfAggregator::total() const {
  std::lock_guard<std::mutex> lk(m_);
  return total_;
}

std::uint64_t CorePerfAggregator::trials() const {
  std::lock_guard<std::mutex> lk(m_);
  return trials_;
}

bool export_core_perf_json(const std::string& path, const std::vector<CorePerfEntry>& entries,
                           const SuiteParallelEntry* suite) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CorePerfEntry& e = entries[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"events_processed\": %llu,\n"
                 "      \"wall_seconds\": %.6f,\n"
                 "      \"events_per_sec\": %.0f",
                 e.name.c_str(), static_cast<unsigned long long>(e.perf.events_processed),
                 e.perf.wall_seconds, e.perf.events_per_sec());
    if (e.baseline_events_per_sec > 0.0) {
      std::fprintf(f,
                   ",\n"
                   "      \"seed_events_per_sec\": %.0f,\n"
                   "      \"speedup_vs_seed\": %.2f",
                   e.baseline_events_per_sec,
                   e.perf.events_per_sec() / e.baseline_events_per_sec);
    }
    if (e.perf.arena_bytes > 0) {
      std::fprintf(f,
                   ",\n"
                   "      \"arena_bytes\": %llu",
                   static_cast<unsigned long long>(e.perf.arena_bytes));
    }
    if (e.perf.peak_rss_bytes > 0) {
      std::fprintf(f,
                   ",\n"
                   "      \"peak_rss_bytes\": %llu",
                   static_cast<unsigned long long>(e.perf.peak_rss_bytes));
    }
    if (e.shards > 0) {
      std::fprintf(f,
                   ",\n"
                   "      \"shards\": %u,\n"
                   "      \"hardware_threads\": %u",
                   e.shards, e.hardware_threads);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (suite != nullptr) {
    std::fprintf(f,
                 ",\n  \"suite_parallel\": {\n"
                 "    \"trials\": %llu,\n"
                 "    \"jobs\": %u,\n"
                 "    \"serial_wall_seconds\": %.6f,\n"
                 "    \"parallel_wall_seconds\": %.6f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"bit_identical\": %s\n"
                 "  }",
                 static_cast<unsigned long long>(suite->trials), suite->jobs,
                 suite->serial_wall_seconds, suite->parallel_wall_seconds, suite->speedup(),
                 suite->bit_identical ? "true" : "false");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace dcp
