#pragma once

// Wall-clock timing utilities.
//
// The MD drivers report a LAMMPS-style breakdown (Pair / Neigh / Comm /
// Other), which SC Fig. 4 is built from. The taxonomy is a *closed* enum:
// TimerSet accumulates into a fixed array indexed by TimerCategory, so
// the per-step hot path does no string hashing, no map lookups and no
// allocation, and iteration order is the declaration order below, always.
// (Free-form string keys were PR-3's design; PR 4 closed the set.)

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <span>

namespace ember {

class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// CPU time of the calling thread. Unlike WallTimer it leaves out the time
// the thread spends descheduled, so serial work can be compared on a
// loaded machine.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  [[nodiscard]] double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
  }
  double start_;
};

// The canonical step-time taxonomy (declaration order == report order).
// The paper's Fig. 4 presentation names ("SNAP", "MPI Comm") are a
// display mapping applied once in the bench layer via md::fig4_label.
enum class TimerCategory : int { Pair = 0, Neigh, Comm, Other, Dump };

inline constexpr int kNumTimerCategories = 5;

inline constexpr std::array<TimerCategory, kNumTimerCategories>
    kTimerCategories = {TimerCategory::Pair, TimerCategory::Neigh,
                        TimerCategory::Comm, TimerCategory::Other,
                        TimerCategory::Dump};

[[nodiscard]] constexpr const char* timer_category_name(TimerCategory c) {
  switch (c) {
    case TimerCategory::Pair: return "Pair";
    case TimerCategory::Neigh: return "Neigh";
    case TimerCategory::Comm: return "Comm";
    case TimerCategory::Other: return "Other";
    case TimerCategory::Dump: return "Dump";
  }
  return "?";
}

// Accumulates elapsed seconds into the fixed category buckets.
class TimerSet {
 public:
  void add(TimerCategory category, double seconds) {
    totals_[index(category)] += seconds;
  }

  // The category's running total: a timed obs::ScopedSpan adds its
  // seconds here, from the same two clock readings as its span.
  [[nodiscard]] double* bucket(TimerCategory category) {
    return &totals_[index(category)];
  }

  [[nodiscard]] double total(TimerCategory category) const {
    return totals_[index(category)];
  }

  [[nodiscard]] double grand_total() const {
    double sum = 0.0;
    for (const double s : totals_) sum += s;
    return sum;
  }

  [[nodiscard]] double fraction(TimerCategory category) const {
    const double all = grand_total();
    return all > 0.0 ? total(category) / all : 0.0;
  }

  // Per-thread load-balance bookkeeping: drivers feed the pool's busy
  // seconds of each threaded stage here (summed over all of the stage's
  // sweeps), and the Fig.-4-style tables report max/avg as the imbalance
  // ratio (1.0 = perfectly balanced).
  struct ThreadStats {
    double min_total = 0.0;  // sum over stages of the fastest worker
    double max_total = 0.0;  // sum over stages of the slowest worker
    double sum_total = 0.0;  // sum over stages and workers
    long stages = 0;
    int nthreads = 0;
  };

  void add_thread_times(TimerCategory category,
                        std::span<const double> busy_seconds) {
    if (busy_seconds.empty()) return;
    ThreadStats& st = thread_stats_[index(category)];
    st.min_total += *std::min_element(busy_seconds.begin(), busy_seconds.end());
    st.max_total += *std::max_element(busy_seconds.begin(), busy_seconds.end());
    for (const double s : busy_seconds) st.sum_total += s;
    st.stages += 1;
    st.nthreads = static_cast<int>(busy_seconds.size());
  }

  // max/avg busy time across workers; 1.0 means perfect balance, 0.0
  // means no threaded stages were recorded for the category.
  [[nodiscard]] double imbalance(TimerCategory category) const {
    const ThreadStats& st = thread_stats_[index(category)];
    if (st.nthreads == 0) return 0.0;
    const double avg = st.sum_total / st.nthreads;
    return avg > 0.0 ? st.max_total / avg : 0.0;
  }

  [[nodiscard]] const ThreadStats& thread_stats(TimerCategory category) const {
    return thread_stats_[index(category)];
  }

  void clear() {
    totals_.fill(0.0);
    thread_stats_.fill(ThreadStats{});
  }

 private:
  static constexpr std::size_t index(TimerCategory c) {
    return static_cast<std::size_t>(c);
  }

  std::array<double, kNumTimerCategories> totals_{};
  std::array<ThreadStats, kNumTimerCategories> thread_stats_{};
};

}  // namespace ember
