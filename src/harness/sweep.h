#pragma once
// Parallel sweep engine: runs independent simulation trials across a
// fixed-size thread pool and returns results indexed by trial, so a
// parallel sweep is bit-identical to the serial loop it replaces.
//
// Discrete-event replications are embarrassingly parallel: every trial
// builds its own Simulator + Network, PacketPool and the EventCallback
// heap-fallback counter are thread-local, and Logger's emit path is
// mutex-guarded, so trials share no mutable state.  The only ordering a
// sweep imposes is on the *results* vector, which is keyed by trial index
// no matter which worker finishes first.
//
// Worker count comes from DCP_JOBS when set; DCP_JOBS=1 forces the classic
// serial path (no threads are created, every trial runs on the caller).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "stats/core_perf.h"

namespace dcp {

/// Worker count for sweeps: DCP_JOBS when set (values < 1 clamp to 1),
/// otherwise std::thread::hardware_concurrency().
unsigned sweep_jobs();

/// Shard count for one run: DCP_SHARDS when set (values < 1 clamp to 1,
/// unset or unparsable means 1), capped at `units`, the topology's
/// partition-unit count (leaf groups on a Clos, pods on a fat-tree,
/// regions on a WAN).  A fault plan with an effect forces 1: the injector
/// mutates switches and channels from timer events with no shard-ordering
/// story.  Re-read on every call, so a process may flip the variable
/// between runs.
int resolve_shards(int units, bool has_faults);

class SweepRunner {
 public:
  explicit SweepRunner(unsigned jobs = sweep_jobs());
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  unsigned jobs() const { return jobs_; }

  /// The "[k/n] trials done" stderr line; on by default.
  void set_progress(bool on) { progress_ = on; }

  /// Runs fn(0) .. fn(n-1) across the pool and returns the results in
  /// trial order.  The calling thread participates as worker 0, so
  /// jobs=1 degenerates to a plain serial loop.  Trials must not throw.
  template <typename Fn, typename R = std::invoke_result_t<Fn&, std::size_t>>
  std::vector<R> run(std::size_t n, Fn fn) {
    static_assert(!std::is_void_v<R>, "a trial must return its measurements");
    std::vector<R> out(n);
    run_indexed(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Type-erased core: executes job(i) for every i in [0, n), each exactly
  /// once, and returns once all have finished.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& job);

  /// Wall-clock seconds of the most recent run_indexed().
  double last_wall_seconds() const { return last_wall_seconds_; }

 private:
  void worker_loop();
  void work();  // pull trial indices until the sweep drains

  const unsigned jobs_;
  bool progress_ = true;
  double last_wall_seconds_ = 0.0;

  // Sweep state, published under m_ and consumed by the pool.  Workers
  // claim trial indices from next_ lock-free; generation_ tells a waking
  // worker that a new sweep started.
  std::mutex m_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t n_ = 0;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  unsigned workers_idle_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// One-line sweep summary on stderr: trials, jobs, sweep wall clock, and
/// the aggregate simulator-substrate throughput across all workers.
void report_sweep(const SweepRunner& pool, const CorePerfAggregator& agg);

}  // namespace dcp
