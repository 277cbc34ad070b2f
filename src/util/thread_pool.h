// Fixed-size worker thread pool with a ParallelFor helper.
//
// The pool exists for the embarrassingly-parallel outer loops of the
// workbench (per-trace evaluation rollouts, per-member ensemble training):
// work items are indexed, workers claim index chunks from a shared counter,
// and every result is written to a caller-owned slot addressed by the
// item's index - so the *scheduling* order is nondeterministic but the
// *results* are positionally deterministic and bit-identical to a serial
// loop over the same items.
//
// ParallelFor blocks until every index has been processed. The calling
// thread participates in the work, so a pool of T threads applies T + 1
// workers to the loop and ParallelFor(…) on a 0-thread pool degrades to a
// plain serial loop. Exceptions thrown by the body are captured and the
// first one is rethrown on the calling thread after the loop drains.
// Nested ParallelFor calls from inside a worker run the inner loop inline
// (serially) instead of deadlocking on the pool.
//
// Concurrent ParallelFor calls from different threads serialize: the
// second caller blocks until the pool is idle, then posts its job. This
// lets independent subsystems share one process-wide pool (see Shared())
// instead of each constructing its own set of threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace osap::util {

/// Per-call tuning for ThreadPool::ParallelFor. Neither field affects
/// results - scheduling only.
struct ParallelOptions {
  /// Upper bound on *pool* workers that may join the loop (the calling
  /// thread always participates, so the loop runs on at most
  /// max_workers + 1 threads). 0 forces a serial loop on the caller; the
  /// default lets every pool worker join. This is how a user-facing
  /// "threads" knob caps a shared pool without resizing it.
  std::size_t max_workers = std::numeric_limits<std::size_t>::max();
  /// Indices claimed per counter fetch. 0 picks a heuristic from the
  /// range size and worker count (coarse enough to amortize the lock,
  /// fine enough to load-balance). Use 1 for very coarse items (e.g.
  /// whole-trace rollouts).
  std::size_t chunk = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 is allowed (ParallelFor runs serially on
  /// the caller).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Number of pool workers (excluding the calling thread).
  std::size_t thread_count() const { return workers_.size(); }

  /// Runs fn(i) for every i in [begin, end), distributing indices across
  /// the workers and the calling thread. Blocks until done; rethrows the
  /// first exception any invocation threw.
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn,
                   const ParallelOptions& options);

  /// Number of distinct scratch slots ParallelFor bodies may observe via
  /// CurrentSlot(): one per worker plus one for the calling thread.
  std::size_t SlotCount() const { return workers_.size() + 1; }

  /// Stable per-thread scratch index for the current thread: pool worker
  /// w reports w + 1, any non-worker thread (the ParallelFor caller,
  /// including the serial fallback) reports 0. Because a pool runs one
  /// job at a time, indexing a caller-owned array of SlotCount() scratch
  /// buffers by CurrentSlot() gives each participating thread a private
  /// buffer that is reused across items - the mechanism behind
  /// allocation-free parallel loops.
  static std::size_t CurrentSlot();

  /// Lazily-initialized process-wide pool sized to SharedConcurrency() - 1
  /// workers. Subsystems share it (ParallelFor calls serialize) instead
  /// of constructing per-call pools; per-call ParallelOptions::max_workers
  /// caps effective parallelism below the pool size.
  static ThreadPool& Shared();

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to return 0 when undetectable).
  static std::size_t HardwareConcurrency();

  /// Total concurrency (workers + caller) the Shared() pool is sized for:
  /// the OSAP_THREADS environment variable when it parses to a positive
  /// integer, HardwareConcurrency() otherwise. The override gives benches
  /// and CI a deterministic pool width on 1-core hosts. Read once, at the
  /// Shared() pool's first use.
  static std::size_t SharedConcurrency();

  /// SharedConcurrency's parsing rule, exposed for tests: `value` is the
  /// raw environment string (nullptr when unset). Positive integers (with
  /// optional surrounding whitespace) win; anything else - unset, empty,
  /// zero, negative, non-numeric, trailing junk - falls back to
  /// HardwareConcurrency().
  static std::size_t ParseSharedConcurrency(const char* value);

 private:
  struct Job {
    std::size_t end = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;        // next unclaimed index
    std::size_t chunk = 1;       // indices claimed per fetch
    std::size_t in_flight = 0;   // indices claimed but not finished
    std::size_t worker_cap = 0;  // max pool workers allowed to join
    std::size_t active = 0;      // pool workers currently draining
    std::exception_ptr error;
  };

  void RunWorker(std::size_t worker_index);
  /// Claims and runs index chunks of the current job until none remain.
  void DrainJob(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: job posted / stop
  std::condition_variable done_cv_;  // signals callers: job drained / idle
  Job job_;
  bool has_job_ = false;
  bool stop_ = false;
};

}  // namespace osap::util
