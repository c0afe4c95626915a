#include "harness/sweep.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace dcp {

namespace {

/// Progress goes through one mutex so concurrent workers never tear the
/// stderr line ("\r" keeps it to a single line on a terminal; piped logs
/// see the same text, just with carriage returns).
void print_progress(std::size_t k, std::size_t n) {
  static std::mutex io;
  std::lock_guard<std::mutex> lk(io);
  std::fprintf(stderr, "\r[%zu/%zu] trials done%s", k, n, k == n ? "\n" : "");
  std::fflush(stderr);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

unsigned sweep_jobs() {
  if (const char* v = std::getenv("DCP_JOBS")) {
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end != v && *end == '\0') return n < 1 ? 1u : static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

int resolve_shards(int units, bool has_faults) {
  if (has_faults) return 1;
  long n = 1;
  if (const char* v = std::getenv("DCP_SHARDS")) {
    char* end = nullptr;
    const long s = std::strtol(v, &end, 10);
    if (end != v && *end == '\0') n = s;
  }
  return static_cast<int>(std::clamp<long>(n, 1, std::max(units, 1)));
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs < 1 ? 1 : jobs) {
  // jobs_ == 1 is the serial path: no pool at all, trials run inline on
  // the caller.  Otherwise spawn jobs_ - 1 workers; the caller is worker 0.
  threads_.reserve(jobs_ - 1);
  for (unsigned w = 1; w < jobs_; ++w) threads_.emplace_back([this] { worker_loop(); });
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void SweepRunner::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_work_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    work();
  }
}

void SweepRunner::work() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) break;
    (*job_)(i);
    const std::size_t k = done_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (progress_) print_progress(k, n_);
  }
  std::lock_guard<std::mutex> lk(m_);
  if (++workers_idle_ == jobs_) cv_done_.notify_all();
}

void SweepRunner::run_indexed(std::size_t n, const std::function<void(std::size_t)>& job) {
  const auto t0 = std::chrono::steady_clock::now();
  if (n == 0) {
    last_wall_seconds_ = 0.0;
    return;
  }

  {
    std::lock_guard<std::mutex> lk(m_);
    job_ = &job;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    workers_idle_ = 0;
    ++generation_;
  }
  cv_work_.notify_all();
  work();  // the caller pulls trials too (all of them when jobs_ == 1)
  {
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] { return workers_idle_ == jobs_; });
    job_ = nullptr;
  }
  last_wall_seconds_ = seconds_since(t0);
}

void report_sweep(const SweepRunner& pool, const CorePerfAggregator& agg) {
  const CorePerf total = agg.total();
  const double wall = pool.last_wall_seconds();
  std::fprintf(stderr,
               "[sweep] %llu trials, %u jobs, %.2fs wall, %llu events "
               "(%.3gM ev/s aggregate, %.3gM ev/s effective)\n",
               static_cast<unsigned long long>(agg.trials()), pool.jobs(), wall,
               static_cast<unsigned long long>(total.events_processed),
               total.events_per_sec() / 1e6,
               wall > 0.0 ? static_cast<double>(total.events_processed) / wall / 1e6 : 0.0);
}

}  // namespace dcp
