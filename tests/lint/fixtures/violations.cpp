// ember_lint self-test fixture: every block below violates exactly one
// rule. tests/lint/test_ember_lint.py asserts the linter reports each
// (rule, line) pair — this file is never compiled.
//
// NOTE: line numbers matter. If you edit this file, update the expected
// findings table in test_ember_lint.py.

#include <atomic>

namespace fixture {

struct Entry {
  int j;
};

// --- naked-new / naked-delete (lines 18, 20) -------------------------------
void owns_raw_memory() {
  int* p = new int[8];
  p[0] = 1;
  delete[] p;
}

// --- atomic-memory-order (lines 25, 26) ------------------------------------
int implicit_order(std::atomic<int>& a) {
  a.fetch_add(1);
  a.store(7);
  return a.load(std::memory_order_relaxed);  // fine: explicit
}

// --- neighbor-span-index (lines 36, 38) ------------------------------------
struct List {
  const Entry* neighbors(int) const;
};
int index_neighbor_span(const List& nl) {
  const auto nbrs = nl.neighbors(3);
  int sum = nbrs[0].j;  // unchecked: no size() guard dominates
  for (int k = 0; k < 4; ++k) {
    sum += nbrs[k].j;  // unchecked loop bound unrelated to the span
  }
  return sum;
}

// --- obs-span-early-return (line 48) ---------------------------------------
#define EMBER_OBS_SPAN(name, cat) int ember_span_dummy = 0
int early_return_in_span_block(bool flag) {
  {
    EMBER_OBS_SPAN("stage", "other");
    if (flag) return 1;
  }
  return 0;
}

// --- timer-switch-exhaustive (lines 56, 64) --------------------------------
enum class TimerCategory { Pair, Neigh, Comm, Other, Dump };
int missing_case(TimerCategory c) {
  switch (c) {
    case TimerCategory::Pair: return 0;
    case TimerCategory::Neigh: return 1;
    case TimerCategory::Comm: return 2;
  }
  return -1;
}
int has_default(TimerCategory c) {
  switch (c) {
    case TimerCategory::Pair: return 0;
    case TimerCategory::Neigh: return 1;
    case TimerCategory::Comm: return 2;
    case TimerCategory::Other: return 3;
    case TimerCategory::Dump: return 4;
    default: return -1;
  }
}

// --- obs-span-early-return, timed scope (line 81) --------------------------
namespace obs {
struct ScopedSpan { ScopedSpan(const char*, const char*, double*) {} };
}  // namespace obs
int early_return_in_timed_scope(bool flag, double* bucket) {
  {
    obs::ScopedSpan stage("force", "pair", bucket);
    if (flag) return 1;
  }
  return 0;
}

}  // namespace fixture
