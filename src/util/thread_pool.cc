#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace osap::util {

namespace {

/// True on threads currently executing a ParallelFor body; nested calls
/// from such threads run inline instead of re-entering the pool.
thread_local bool t_in_parallel_for = false;

/// Scratch slot of the current thread: worker w of the pool that owns it
/// reports w + 1, every other thread reports 0. See CurrentSlot().
thread_local std::size_t t_slot = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this, t] { RunWorker(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t ThreadPool::CurrentSlot() { return t_slot; }

std::size_t ThreadPool::ParseSharedConcurrency(const char* value) {
  if (value == nullptr) return HardwareConcurrency();
  const char* p = value;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p < '0' || *p > '9') return HardwareConcurrency();
  std::size_t parsed = 0;
  for (; *p >= '0' && *p <= '9'; ++p) {
    if (parsed > (std::numeric_limits<std::size_t>::max() - 9) / 10) {
      return HardwareConcurrency();  // overflow: treat as malformed
    }
    parsed = parsed * 10 + static_cast<std::size_t>(*p - '0');
  }
  while (*p == ' ' || *p == '\t') ++p;
  if (*p != '\0' || parsed == 0) return HardwareConcurrency();
  return parsed;
}

std::size_t ThreadPool::SharedConcurrency() {
  return ParseSharedConcurrency(std::getenv("OSAP_THREADS"));
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(SharedConcurrency() - 1);
  return pool;
}

void ThreadPool::DrainJob(std::unique_lock<std::mutex>& lock) {
  while (job_.next < job_.end) {
    const std::size_t chunk_begin = job_.next;
    const std::size_t chunk_end =
        std::min(chunk_begin + job_.chunk, job_.end);
    job_.next = chunk_end;
    job_.in_flight += chunk_end - chunk_begin;
    lock.unlock();
    std::exception_ptr error;
    t_in_parallel_for = true;
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
      try {
        (*job_.fn)(i);
      } catch (...) {
        error = std::current_exception();
        break;  // abandon the rest of this chunk
      }
    }
    t_in_parallel_for = false;
    lock.lock();
    job_.in_flight -= chunk_end - chunk_begin;
    if (error && !job_.error) {
      job_.error = error;
      job_.next = job_.end;  // abandon unclaimed indices
    }
  }
}

void ThreadPool::RunWorker(std::size_t worker_index) {
  t_slot = worker_index + 1;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stop_ || (has_job_ && job_.next < job_.end &&
                       job_.active < job_.worker_cap);
    });
    if (stop_) return;
    ++job_.active;
    DrainJob(lock);
    --job_.active;
    if (job_.in_flight == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  ParallelFor(begin, end, fn, ParallelOptions{});
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn,
                             const ParallelOptions& options) {
  OSAP_REQUIRE(begin <= end, "ParallelFor: begin must be <= end");
  if (begin == end) return;
  const std::size_t cap = std::min(options.max_workers, workers_.size());
  if (cap == 0 || end - begin == 1 || t_in_parallel_for) {
    // Serial fallback: no workers available (or allowed), a single item,
    // or a nested call from inside a worker (claiming pool capacity here
    // could deadlock).
    const bool was_nested = t_in_parallel_for;
    t_in_parallel_for = true;
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      t_in_parallel_for = was_nested;
      throw;
    }
    t_in_parallel_for = was_nested;
    return;
  }

  std::size_t chunk = options.chunk;
  if (chunk == 0) {
    // ~4 fetches per participant: coarse enough to amortize the counter
    // lock on fine-grained loops, fine enough to rebalance stragglers.
    chunk = std::max<std::size_t>(1, (end - begin) / ((cap + 1) * 4));
  }

  std::unique_lock<std::mutex> lock(mutex_);
  // Concurrent callers queue here until the pool is idle again.
  done_cv_.wait(lock, [this] { return !has_job_; });
  job_ = Job{};
  job_.next = begin;
  job_.end = end;
  job_.fn = &fn;
  job_.chunk = chunk;
  job_.worker_cap = cap;
  has_job_ = true;
  work_cv_.notify_all();

  DrainJob(lock);  // the caller works too
  done_cv_.wait(lock, [this] {
    return job_.in_flight == 0 && job_.active == 0;
  });
  has_job_ = false;
  const std::exception_ptr error = job_.error;
  job_ = Job{};
  done_cv_.notify_all();  // wake queued callers
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace osap::util
