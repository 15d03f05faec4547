#include "writer.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "io/embt1.hpp"
#include "io/formats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::io {

namespace {

struct IoMetrics {
  obs::Counter& bytes;
  obs::Counter& frames;
  obs::Counter& stall_seconds;
  obs::Counter& stalls_avoided_seconds;

  static IoMetrics& get() {
    static IoMetrics m{
        obs::Registry::global().counter("io.bytes"),
        obs::Registry::global().counter("io.frames"),
        obs::Registry::global().counter("io.stall_seconds"),
        obs::Registry::global().counter("io.stalls_avoided_seconds"),
    };
    return m;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Adds the seconds from construction to destruction to io.stall_seconds,
// also when the wait it times ends in a rethrown error.
class StallTimer {
 public:
  StallTimer() = default;
  StallTimer(const StallTimer&) = delete;
  StallTimer& operator=(const StallTimer&) = delete;
  ~StallTimer() { IoMetrics::get().stall_seconds.add(seconds_since(t0_)); }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

// Moves a finished "<path>.tmp" over "<path>" on a helper thread. On ext4
// a rename that replaces a file first forces writeback of the new file's
// data (auto_da_alloc), queued behind every other dirty page of the run
// (the trajectory's): a median 79-92 ms against 0.1-0.4 ms for the write
// itself (DESIGN.md §13). Off the submitting thread, that wait no longer
// stalls a step. The syscalls and their order are those of an inline
// rename.
//
// At most one publish is in flight, and its helper thread lives only from
// start() to the join in wait(). Every writer barrier joins it, so the
// drain made before socket ranks fork() leaves no helper to cross it. The
// rename runs outside mutex_; the lock guards only the in-flight flag, the
// thread handle and the error.
class Publisher {
 public:
  Publisher() = default;
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  ~Publisher() {
    try {
      wait();
    } catch (const std::exception& e) {
      // Destructors cannot throw; callers that must observe a failed
      // publish call drain().
      std::fprintf(stderr, "ember: io error during writer shutdown: %s\n",
                   e.what());
    }
  }

  // Starts renaming tmp over path. The caller has wait()ed for the
  // previous publish, which held tmp's name until its rename.
  void start(const std::string& tmp, const std::string& path) {
    // Built here, so nothing on the helper thread can throw.
    std::exception_ptr failure = std::make_exception_ptr(
        Error("cannot move checkpoint into place: " + path));
    LockGuard lk(mutex_);
    EMBER_REQUIRE(!helper_.joinable(), "checkpoint publish already in flight");
    // Spawned under the lock, so in_flight_ is set before the helper can
    // clear it; the helper's first act is to wait for this lock.
    helper_ = std::thread([this, tmp, path,
                           failure = std::move(failure)]() mutable {
      const bool moved = std::rename(tmp.c_str(), path.c_str()) == 0;
      LockGuard done(mutex_);
      if (!moved) error_ = std::move(failure);
      in_flight_ = false;
      done_cv_.notify_all();
    });
    in_flight_ = true;
  }

  // Barrier: returns once the last started publish has finished, and
  // rethrows its error once. The join happens outside the lock.
  void wait() {
    std::thread helper;
    std::exception_ptr err;
    {
      LockGuard lk(mutex_);
      while (in_flight_) done_cv_.wait(mutex_);
      helper = std::move(helper_);
      err = std::exchange(error_, nullptr);
    }
    if (helper.joinable()) helper.join();  // already past its rename
    if (err != nullptr) std::rethrow_exception(err);
  }

 private:
  Mutex mutex_;
  CondVar done_cv_;
  bool in_flight_ EMBER_GUARDED_BY(mutex_) = false;
  std::thread helper_ EMBER_GUARDED_BY(mutex_);
  std::exception_ptr error_ EMBER_GUARDED_BY(mutex_);
};

// Runs requests against the filesystem. Owned by exactly one thread at a
// time — the caller for SyncWriter, the worker for AsyncWriter — so it
// needs no locking; the per-path Embt1Writer map is what keeps delta
// encoding stateful across trajectory requests. The one exception is its
// Publisher, which locks for itself: a writer's barrier waits on it from
// the caller's thread.
class Executor {
 public:
  void execute(const Request& req) {
    EMBER_OBS_SPAN("io.write", "io");
    std::size_t bytes = 0;
    switch (req.kind) {
      case Request::Kind::Trajectory:
        bytes = write_trajectory(req);
        break;
      case Request::Kind::Checkpoint:
      case Request::Kind::CheckpointBatch:
        bytes = write_checkpoint(req);
        break;
    }
    IoMetrics::get().bytes.add(static_cast<double>(bytes));
    IoMetrics::get().frames.add(static_cast<double>(req.frames.size()));
  }

  // Barrier for the last checkpoint's rename (see Publisher).
  void wait_published() { publisher_.wait(); }

 private:
  std::size_t write_trajectory(const Request& req) {
    if (req.format == Format::Embt1) {
      auto it = traj_.find(req.path);
      if (it == traj_.end() || req.truncate) {
        it = traj_.insert_or_assign(req.path,
                                    Embt1Writer(req.path, req.truncate))
                 .first;
      }
      std::size_t n = 0;
      for (const Frame& f : req.frames) n += it->second.append(f);
      return n;
    }
    std::ostringstream buf;
    for (const Frame& f : req.frames) write_xyz_frame(buf, f);
    const std::string bytes = buf.str();
    std::ofstream os(req.path, req.truncate ? std::ios::trunc : std::ios::app);
    if (!os.good()) throw Error("cannot open " + req.path + " for writing");
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      throw Error("xyz write failed (disk full or path unwritable): " +
                  req.path);
    }
    return bytes.size();
  }

  // Checkpoints are written to "<path>.tmp" here and renamed into place by
  // the publisher, so a reader never sees a half-written restart file,
  // even while the async queue or the rename is still in flight.
  std::size_t write_checkpoint(const Request& req) {
    std::ostringstream buf(std::ios::binary);
    if (req.kind == Request::Kind::Checkpoint) {
      EMBER_REQUIRE(req.frames.size() == 1,
                    "single-system checkpoint takes exactly one frame");
      write_checkpoint_frame(buf, req.frames.front());
    } else {
      write_checkpoint_frames(buf, req.frames);
    }
    const std::string bytes = buf.str();
    const std::string tmp = req.path + ".tmp";
    publisher_.wait();  // the previous rename may still hold tmp's name
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os.good()) throw Error("cannot open " + tmp + " for writing");
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      os.flush();
      if (!os.good()) {
        throw Error("checkpoint write failed (disk full or path unwritable): " +
                    tmp);
      }
    }
    publisher_.start(tmp, req.path);
    return bytes.size();
  }

  std::map<std::string, Embt1Writer> traj_;
  Publisher publisher_;  // last member: its destructor waits first
};

class SyncWriter final : public Writer {
 public:
  void submit(Request req) override {
    // The write happens on the caller's thread (only a checkpoint's rename
    // does not): that is exactly the stall the async backend exists to
    // remove, so record it as one.
    const StallTimer stall;
    executor_.execute(req);
  }

  // Every write already completed inline; only a checkpoint's rename may
  // still be in flight.
  void drain() override {
    const StallTimer stall;
    executor_.wait_published();
  }

  [[nodiscard]] bool async() const override { return false; }

 private:
  Executor executor_;
};

class AsyncWriter final : public Writer {
 public:
  explicit AsyncWriter(std::size_t queue_capacity)
      : capacity_(queue_capacity < 1 ? 1 : queue_capacity),
        worker_([this] { run(); }) {}

  ~AsyncWriter() override {
    {
      LockGuard lk(mutex_);
      stopping_ = true;
    }
    worker_cv_.notify_all();
    worker_.join();  // drain-on-destruct: the worker empties the queue first
    // (executor_'s destructor then waits for the last checkpoint's rename).
    // The worker is gone, but error_ is guarded state: take the lock like
    // everyone else (uncontended here) rather than carving out an exempt
    // read the analysis would rightly flag.
    std::exception_ptr err;
    {
      LockGuard lk(mutex_);
      err = std::exchange(error_, nullptr);
    }
    if (err != nullptr) {
      // Destructors cannot throw; this is the one place an error can
      // surface without a caller to rethrow into. Callers that must
      // observe errors (checkpoint barriers, end-of-run) call drain().
      try {
        std::rethrow_exception(err);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ember: io error during writer shutdown: %s\n",
                     e.what());
      }
    }
  }

  void submit(Request req) override {
    LockGuard lk(mutex_);
    rethrow_pending();
    if (queue_.size() >= capacity_) {
      // Backpressure: the producer outran the disk. The blocked time is
      // the stall the double buffer could not hide.
      const auto t0 = std::chrono::steady_clock::now();
      while (queue_.size() >= capacity_ && error_ == nullptr) {
        caller_cv_.wait(mutex_);
      }
      IoMetrics::get().stall_seconds.add(seconds_since(t0));
      rethrow_pending();
    }
    queue_.push_back(std::move(req));
    worker_cv_.notify_one();
  }

  void drain() override {
    const StallTimer stall;
    {
      LockGuard lk(mutex_);
      while (!(queue_.empty() && !in_flight_) && error_ == nullptr) {
        caller_cv_.wait(mutex_);
      }
      rethrow_pending();
    }
    // The worker is idle, but the last checkpoint's rename may still be
    // running: wait for it outside the lock.
    executor_.wait_published();
  }

  [[nodiscard]] bool async() const override { return true; }

 private:
  // Rethrows the worker's first error once; later requests start from a
  // clean slate (the interpreter keeps running after a failed run).
  void rethrow_pending() EMBER_REQUIRES(mutex_) {
    if (error_ != nullptr) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

  void run() {
    obs::TraceSession::global().set_thread_name("io-writer");
    for (;;) {
      Request req;
      {
        LockGuard lk(mutex_);
        while (queue_.empty() && !stopping_) worker_cv_.wait(mutex_);
        if (queue_.empty()) return;  // stopping_ and fully drained
        req = std::move(queue_.front());
        queue_.pop_front();
        in_flight_ = true;
      }

      // The filesystem work runs outside the lock (ember_analyze
      // blocking-under-lock pins this): submit() stays wait-free while a
      // frame is being written, which is the whole point of the backend.
      const auto t0 = std::chrono::steady_clock::now();
      std::exception_ptr err;
      try {
        executor_.execute(req);
      } catch (...) {
        err = std::current_exception();
      }
      const double write_seconds = seconds_since(t0);

      {
        LockGuard lk(mutex_);
        in_flight_ = false;
        if (err != nullptr) {
          // Moved, not copied: the caller that rethrows it then holds the
          // last reference (TSan cannot see libstdc++'s refcount atomics).
          if (error_ == nullptr) error_ = std::move(err);
          // Not a silent drop: the error is rethrown at the caller's next
          // submit()/drain(), and later requests could depend on this one.
          queue_.clear();
        } else {
          IoMetrics::get().stalls_avoided_seconds.add(write_seconds);
        }
        caller_cv_.notify_all();
      }
    }
  }

  Executor executor_;
  const std::size_t capacity_;
  Mutex mutex_;
  CondVar worker_cv_;  // signals work / stop to the worker
  CondVar caller_cv_;  // signals space / completion / error
  std::deque<Request> queue_ EMBER_GUARDED_BY(mutex_);
  bool in_flight_ EMBER_GUARDED_BY(mutex_) = false;
  bool stopping_ EMBER_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ EMBER_GUARDED_BY(mutex_);
  std::thread worker_;  // last member: starts after the state it reads
};

}  // namespace

Format format_from_path(const std::string& path) {
  return path.ends_with(kEmbt1Extension) ? Format::Embt1 : Format::Xyz;
}

const char* to_string(Format format) {
  return format == Format::Embt1 ? "ember_traj" : "xyz";
}

const char* to_string(Mode mode) {
  return mode == Mode::Async ? "async" : "sync";
}

Mode mode_from_env() {
  const char* env = std::getenv("EMBER_IO");
  if (env == nullptr || *env == '\0') return Mode::Sync;
  const std::string_view v(env);
  if (v == "sync") return Mode::Sync;
  if (v == "async") return Mode::Async;
  throw Error("EMBER_IO must be 'sync' or 'async', got '" + std::string(v) +
              "'");
}

std::unique_ptr<Writer> make_writer(Mode mode, std::size_t queue_capacity) {
  if (mode == Mode::Async) {
    return std::make_unique<AsyncWriter>(queue_capacity);
  }
  return std::make_unique<SyncWriter>();
}

}  // namespace ember::io
