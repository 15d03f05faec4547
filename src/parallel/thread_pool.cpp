#include "thread_pool.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ember::parallel {

ThreadPool::ThreadPool(int nthreads) : nthreads_(std::max(1, nthreads)) {
  busy_seconds_.assign(nthreads_, 0.0);
  workers_.reserve(nthreads_ - 1);
  for (int tid = 1; tid < nthreads_; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Sweep ThreadPool::current_sweep() const {
  Sweep s;
  s.fn = &job_;
  s.begin = job_begin_;
  s.end = job_end_;
  s.grain = job_grain_;
  s.nchunks = nchunks_;
  return s;
}

void ThreadPool::run_chunks(int tid, const Sweep& sweep) {
  // One timed scope per worker per sweep: its busy seconds, and with
  // tracing on a "pool.sweep" bar on the worker's track, from one pair of
  // clock readings.
  obs::ScopedSpan span("pool.sweep", "pool", &busy_seconds_[tid]);
  // Static round-robin chunk map: chunk c -> worker c % nthreads, chunks
  // ascending per worker. Depends only on the job geometry, so the work
  // (and thus each worker's accumulation order) is schedule-independent.
  for (int c = tid; c < sweep.nchunks; c += nthreads_) {
    const int b = sweep.begin + c * sweep.grain;
    const int e = std::min(sweep.end, b + sweep.grain);
    (*sweep.fn)(tid, b, e);
  }
}

void ThreadPool::worker_loop(int tid) {
  obs::TraceSession::global().set_thread_name("pool-worker-" +
                                              std::to_string(tid));
  std::uint64_t seen = 0;
  for (;;) {
    Sweep sweep;
    {
      LockGuard lock(mutex_);
      while (!shutdown_ && generation_ == seen) start_cv_.wait(mutex_);
      if (shutdown_) return;
      seen = generation_;
      // Copy the geometry while the lock is held: run_chunks then reads
      // no guarded state. job_ itself stays alive until remaining_ hits
      // zero, which this worker signals only after its last chunk.
      sweep = current_sweep();
    }
    run_chunks(tid, sweep);
    {
      LockGuard lock(mutex_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(int begin, int end, int grain,
                              const std::function<void(int, int, int)>& fn) {
  if (end <= begin) return;
  const int n = end - begin;
  if (nthreads_ == 1) {
    // Serial pool: one chunk on the calling thread, no threads.
    run_chunks(0, Sweep{&fn, begin, end, n, 1});
    return;
  }
  if (grain <= 0) grain = (n + nthreads_ - 1) / nthreads_;
  grain = std::max(1, grain);

  Sweep sweep;
  {
    LockGuard lock(mutex_);
    EMBER_REQUIRE(remaining_ == 0, "nested parallel_for on one pool");
    job_ = fn;
    job_begin_ = begin;
    job_end_ = end;
    job_grain_ = grain;
    nchunks_ = (n + grain - 1) / grain;
    remaining_ = nthreads_ - 1;
    ++generation_;
    sweep = current_sweep();
  }
  start_cv_.notify_all();
  run_chunks(0, sweep);
  {
    LockGuard lock(mutex_);
    while (remaining_ != 0) done_cv_.wait(mutex_);
    job_ = nullptr;
  }
}

}  // namespace ember::parallel
