// ember_lint self-test fixture: everything below is legal — the linter
// must report zero findings for this file. Never compiled.

#include <atomic>
#include <cstddef>
#include <memory>

namespace fixture {

struct Entry {
  int j;
};

struct Span {
  const Entry* data;
  std::size_t n;
  [[nodiscard]] std::size_t size() const { return n; }
  const Entry& operator[](std::size_t i) const { return data[i]; }
};

struct List {
  [[nodiscard]] Span neighbors(int) const;
};

// Smart-pointer ownership; `new` only inside an allow()ed line.
struct Widget {
  Widget() = default;
  Widget(const Widget&) = delete;  // `= delete` is not a naked delete
  Widget& operator=(const Widget&) = delete;
};
std::unique_ptr<Widget> make_widget() { return std::make_unique<Widget>(); }
// ember-lint: allow(naked-new) -- exercising the annotated-escape path.
Widget* leaked_singleton() { return new Widget; }

// A "renewal" identifier must not trip the word-boundary match.
int renewal_delete_me(int renewed) { return renewed; }

// Atomics with explicit orders.
int explicit_orders(std::atomic<int>& a) {
  a.fetch_add(1, std::memory_order_relaxed);
  a.store(2, std::memory_order_release);
  return a.load(std::memory_order_acquire);
}

// Range-for and size()-guarded indexing of neighbor spans.
int iterate_neighbors(const List& nl) {
  int sum = 0;
  const auto nbrs = nl.neighbors(0);
  for (std::size_t m = 0; m < nbrs.size(); ++m) {
    sum += nbrs[m].j;  // guarded by the loop condition
  }
  return sum;
}

// The string "new" inside literals/comments is not code: new delete.
const char* kMessage = "do not new or delete here";

// Span block without an early return is fine.
#define EMBER_OBS_SPAN(name, cat) int ember_span_dummy = 0
int span_block_ok() {
  int result = 0;
  {
    EMBER_OBS_SPAN("stage", "other");
    result = 42;
  }
  return result;
}

// Timed-scope block without an early return is fine.
namespace obs {
struct ScopedSpan { ScopedSpan(const char*, const char*, double*) {} };
}  // namespace obs
int timed_scope_block_ok(double* bucket) {
  int result = 0;
  {
    obs::ScopedSpan stage("force", "pair", bucket);
    result = 42;
  }
  return result;
}

// Exhaustive TimerCategory switch without default.
enum class TimerCategory { Pair, Neigh, Comm, Other, Dump };
int exhaustive(TimerCategory c) {
  switch (c) {
    case TimerCategory::Pair: return 0;
    case TimerCategory::Neigh: return 1;
    case TimerCategory::Comm: return 2;
    case TimerCategory::Other: return 3;
    case TimerCategory::Dump: return 4;
  }
  return -1;
}

// Step-loop code may READ files (restarts run off the hot path) and may
// of course build io::Writer requests; only output streams are banned.
struct StepLoop {
  int step;
};
int restart_from_disk(StepLoop& loop) {
  // std::ifstream is fine here; so is read_checkpoint.
  return loop.step;
}

// A switch over an unrelated enum may do whatever it likes.
enum class Color { Red, Green };
int unrelated(Color c) {
  switch (c) {
    case Color::Red: return 0;
    default: return 1;
  }
}

}  // namespace fixture
