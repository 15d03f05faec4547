#pragma once

// Persistent worker pool for node-level parallelism.
//
// This is the CPU analogue of the paper's Kokkos thread hierarchy: one
// pool per driver object (Simulation, TestSnap, ...) plays the role of a
// GPU thread block / OpenMP team, and parallel_for distributes atom
// ranges over it. Determinism is a design requirement (the tests pin it):
//
//   * chunks are assigned to workers by a static round-robin map that
//     depends only on (range, grain, nthreads) — never on timing;
//   * every worker accumulates into its own slot, and reduce_tree()
//     combines the slots in a fixed pairwise tree order;
//
// so repeated runs at a fixed thread count are bitwise identical, and
// the floating-point result is independent of OS scheduling.
//
// nthreads == 1 never spawns a thread: parallel_for degenerates to the
// plain serial loop, preserving the seed code paths exactly.
//
// Locking contract (machine-checked on clang, DESIGN.md §14): every
// member that both sides of the start/done handshake touch is
// EMBER_GUARDED_BY(mutex_). Workers never read job state outside the
// lock — each one copies the published Sweep geometry while it still
// holds mutex_ coming out of the start wait, then runs lock-free on the
// copy. busy_seconds_ needs no lock: slot tid is written only by worker
// tid during a sweep, and the done_cv_ handshake orders those writes
// before any caller's read of thread_seconds() or its reset.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ember {

// How many threads a driver may use for its hot paths. The default is
// serial, which reproduces the pre-threading behavior bit for bit.
struct ExecutionPolicy {
  int nthreads = 1;

  [[nodiscard]] bool serial() const { return nthreads <= 1; }

  // Resolve "threads auto" / EMBER_NUM_THREADS=0 to the hardware count.
  [[nodiscard]] static ExecutionPolicy hardware() {
    const unsigned n = std::thread::hardware_concurrency();
    return ExecutionPolicy{n > 0 ? static_cast<int>(n) : 1};
  }
};

namespace parallel {

class ThreadPool {
 public:
  // Spawns nthreads - 1 persistent workers; the calling thread always
  // participates as tid 0.
  explicit ThreadPool(int nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return nthreads_; }

  // Split [begin, end) into contiguous chunks of ~grain iterations and
  // run fn(tid, chunk_begin, chunk_end) with chunk c handled by worker
  // c % nthreads (chunks in ascending order within each worker). grain
  // <= 0 means one chunk per worker. Blocks until every chunk ran.
  void parallel_for(int begin, int end, int grain,
                    const std::function<void(int, int, int)>& fn);

  // One contiguous block per worker (parallel_for with grain <= 0):
  // the partition used when per-worker scratch should be touched exactly
  // once per sweep (neighbor stitching, force merges).
  void parallel_blocks(int begin, int end,
                       const std::function<void(int, int, int)>& fn) {
    parallel_for(begin, end, /*grain=*/0, fn);
  }

  // Busy seconds per worker, summed over every parallel_for since the
  // last reset_thread_seconds(): a stage resets, runs all its sweeps and
  // reads, so its imbalance stats cover the whole stage rather than its
  // last (often tiny) sweep. Valid only between sweeps: parallel_for's
  // return is the happens-before edge that publishes every slot.
  [[nodiscard]] std::span<const double> thread_seconds() const {
    return busy_seconds_;
  }
  void reset_thread_seconds() {
    std::fill(busy_seconds_.begin(), busy_seconds_.end(), 0.0);
  }

  // Deterministic pairwise tree reduction over per-worker slots:
  //   stride 1: slot[0] += slot[1], slot[2] += slot[3], ...
  //   stride 2: slot[0] += slot[2], ...
  // The combine order depends only on slots.size(), so the rounded
  // floating-point result is reproducible run to run.
  template <typename T, typename Op>
  static T reduce_tree(std::span<T> slots, Op&& combine) {
    const std::size_t n = slots.size();
    if (n == 0) return T{};
    for (std::size_t stride = 1; stride < n; stride *= 2) {
      for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
        slots[i] = combine(slots[i], slots[i + stride]);
      }
    }
    return slots[0];
  }

 private:
  // Immutable per-sweep geometry, copied out of the guarded job state
  // while the lock is held. `fn` points at job_, which the publishing
  // thread keeps alive until every worker has decremented remaining_.
  struct Sweep {
    const std::function<void(int, int, int)>* fn = nullptr;
    int begin = 0;
    int end = 0;
    int grain = 0;
    int nchunks = 0;
  };

  void worker_loop(int tid);
  void run_chunks(int tid, const Sweep& sweep);
  [[nodiscard]] Sweep current_sweep() const EMBER_REQUIRES(mutex_);

  int nthreads_ = 1;
  std::vector<std::thread> workers_;
  // Slot tid is owned by worker tid during a sweep; the done handshake
  // (remaining_ under mutex_) publishes it to the caller.
  std::vector<double> busy_seconds_;

  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;

  // Current job, published under mutex_ by parallel_for and copied out
  // under mutex_ by each worker (as a Sweep) before running.
  std::function<void(int, int, int)> job_ EMBER_GUARDED_BY(mutex_);
  int job_begin_ EMBER_GUARDED_BY(mutex_) = 0;
  int job_end_ EMBER_GUARDED_BY(mutex_) = 0;
  int job_grain_ EMBER_GUARDED_BY(mutex_) = 0;
  int nchunks_ EMBER_GUARDED_BY(mutex_) = 0;
  // Bumped once per parallel_for; workers wake when it moves.
  std::uint64_t generation_ EMBER_GUARDED_BY(mutex_) = 0;
  // Workers still running the current job.
  int remaining_ EMBER_GUARDED_BY(mutex_) = 0;
  bool shutdown_ EMBER_GUARDED_BY(mutex_) = false;
};

}  // namespace parallel
}  // namespace ember
