#include "trace.hpp"

#include <cstring>
#include <deque>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ember::obs {

// One buffer per thread that ever recorded a span (or set a name). The
// buffer's mutex serializes that thread's appends against snapshot() from
// readers; appends are uncontended in steady state.
struct TraceSession::ThreadBuffer {
  mutable Mutex mutex;
  std::vector<SpanEvent> events EMBER_GUARDED_BY(mutex);
  std::string name EMBER_GUARDED_BY(mutex);
  // tid is written once under Impl::mutex when the buffer is created and
  // read-only afterwards; depth is touched only by the owning thread
  // (ScopedSpan nests strictly on one stack). Neither needs this mutex.
  int tid = 0;
  int depth = 0;
};

struct TraceSession::Impl {
  Mutex mutex;  // guards the buffer list
  std::deque<ThreadBuffer> buffers EMBER_GUARDED_BY(mutex);  // stable addrs
};

TraceSession& TraceSession::global() {
  static TraceSession instance;
  return instance;
}

TraceSession::TraceSession()
    // ember-lint: allow(naked-new) -- deliberately leaked singleton:
    // detached threads may record spans after static destruction order
    // would have torn a unique_ptr down.
    : t0_ns_(now_ns()), impl_(new Impl) {}

TraceSession::ThreadBuffer& TraceSession::buffer() {
  thread_local ThreadBuffer* mine = nullptr;
  if (mine == nullptr) {
    LockGuard lock(impl_->mutex);
    mine = &impl_->buffers.emplace_back();
    mine->tid = static_cast<int>(impl_->buffers.size()) - 1;
  }
  return *mine;
}

void TraceSession::start() { enabled_.store(true, std::memory_order_relaxed); }
void TraceSession::stop() { enabled_.store(false, std::memory_order_relaxed); }

void TraceSession::clear() {
  LockGuard lock(impl_->mutex);
  for (auto& b : impl_->buffers) {
    LockGuard blk(b.mutex);
    b.events.clear();
  }
}

void TraceSession::set_thread_name(const std::string& name) {
  ThreadBuffer& b = buffer();
  LockGuard lock(b.mutex);
  b.name = name;
}

std::vector<SpanEvent> TraceSession::snapshot() const {
  std::vector<SpanEvent> out;
  LockGuard lock(impl_->mutex);
  for (const auto& b : impl_->buffers) {
    LockGuard blk(b.mutex);
    out.insert(out.end(), b.events.begin(), b.events.end());
  }
  return out;
}

long TraceSession::count(const char* name) const {
  long n = 0;
  for (const auto& ev : snapshot()) {
    if (std::strcmp(ev.name, name) == 0) ++n;
  }
  return n;
}

Json TraceSession::chrome_trace() const {
  Json events = Json::array();
  {
    LockGuard lock(impl_->mutex);
    for (const auto& b : impl_->buffers) {
      LockGuard blk(b.mutex);
      if (!b.name.empty()) {
        Json meta = Json::object();
        meta.set("ph", "M");
        meta.set("name", "thread_name");
        meta.set("pid", 1);
        meta.set("tid", b.tid);
        meta.set("args", Json::object().set("name", b.name));
        events.push(std::move(meta));
      }
      for (const SpanEvent& ev : b.events) {
        Json e = Json::object();
        e.set("ph", "X");
        e.set("name", ev.name);
        e.set("cat", ev.cat);
        e.set("pid", 1);
        e.set("tid", ev.tid);
        // Chrome expects microseconds; keep ns resolution as fractions.
        e.set("ts", static_cast<double>(ev.start_ns) / 1e3, "%.3f");
        e.set("dur", static_cast<double>(ev.dur_ns) / 1e3, "%.3f");
        Json args = Json::object();
        args.set("depth", ev.depth);
        if (ev.arg_key != nullptr) args.set(ev.arg_key, ev.arg_val);
        e.set("args", std::move(args));
        events.push(std::move(e));
      }
    }
  }
  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root;
}

void TraceSession::write_chrome_trace(const std::string& path) const {
  chrome_trace().write_file(path, /*indent=*/0);
}

// ---- ScopedSpan -----------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, const char* cat, double* sink,
                       const char* arg_key, std::int64_t arg_val)
    : sink_(sink) {
  TraceSession& s = TraceSession::global();
  if (s.enabled()) {
    buf_ = &s.buffer();
    ev_.name = name;
    ev_.cat = cat;
    ev_.tid = buf_->tid;
    ev_.depth = buf_->depth++;
    ev_.arg_key = arg_key;
    ev_.arg_val = arg_val;
  } else if (sink_ == nullptr) {
    return;
  }
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr && buf_ == nullptr) return;
  const std::int64_t dur_ns = now_ns() - start_ns_;
  if (sink_ != nullptr) *sink_ += 1e-9 * static_cast<double>(dur_ns);
  if (buf_ == nullptr) return;
  ev_.start_ns = start_ns_ - TraceSession::global().t0_ns_;
  ev_.dur_ns = dur_ns;
  buf_->depth--;
  LockGuard lock(buf_->mutex);
  buf_->events.push_back(ev_);
}

}  // namespace ember::obs
