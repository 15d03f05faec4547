#pragma once

// io::Writer — the output pipeline behind every driver (DESIGN.md §13).
//
// The step loop never touches a file stream: it snapshots the System into
// io::Frames, wraps them in a Request and submits it to a Writer. Two
// backends implement the interface over the SAME executor (same format
// serializers, same Frame snapshots), which is what makes sync and async
// output bitwise identical by construction:
//
//   * SyncWriter   — executes the request inline. The caller blocks for
//                    the full write; that blocked time is recorded as
//                    io.stall_seconds.
//   * AsyncWriter  — bounded queue (default capacity 2 — the classic
//                    double buffer: one frame being written, one being
//                    filled) drained by a dedicated "io-writer" thread.
//                    submit() only blocks when the queue is full
//                    (backpressure, recorded as io.stall_seconds); the
//                    off-thread write time the step loop did NOT pay is
//                    recorded as io.stalls_avoided_seconds.
//
// Error protocol: a failed write is never a silent drop. SyncWriter
// throws in submit(); AsyncWriter captures the worker's exception and
// rethrows it (ember::Error with the path in the message) from the next
// submit()/drain(). The destructor drains outstanding requests, and an
// error surfacing only then is reported to stderr (destructors cannot
// throw) — callers that must observe errors call drain().
//
// Durability protocol: checkpoint requests are written to "<path>.tmp"
// by the executing thread, closed, and renamed over "<path>" by a helper
// thread, so a checkpoint file on disk is always complete even while the
// async queue or the rename is in flight. The rename is the slow part: on
// ext4 a rename over an existing file forces writeback of the new data
// (auto_da_alloc), queued behind the run's own trajectory pages: a median
// 79-92 ms against 0.1-0.4 ms for the write (DESIGN.md §13). At most one
// rename is in flight; the next checkpoint waits for it before reusing
// the .tmp name, and its error (ember::Error naming the path) is rethrown
// there or at drain(). drain(), both destructors and the end of a
// StepLoop::run() that schedules checkpoints wait for it, so a barrier
// always finds the file in place. There is no unlink, exchange or fsync:
// the same syscalls in the same order as an inline rename, so a crash
// leaves the old checkpoint or the new one.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "io/frame.hpp"

namespace ember::io {

enum class Format { Xyz, Embt1 };

// .embt1 => Embt1, anything else => Xyz.
[[nodiscard]] Format format_from_path(const std::string& path);
[[nodiscard]] const char* to_string(Format format);

struct Request {
  enum class Kind {
    Trajectory,       // append frames to a trajectory (XYZ or EMBT1)
    Checkpoint,       // one frame, EMBERCP1, tmp+rename
    CheckpointBatch,  // one frame per replica, EMBERCP2, tmp+rename
  };

  Kind kind = Kind::Trajectory;
  std::string path;
  Format format = Format::Xyz;  // trajectory requests only
  // Trajectory only: start the file over (first dump of a fresh run)
  // instead of appending.
  bool truncate = false;
  std::vector<Frame> frames;
};

class Writer {
 public:
  virtual ~Writer() = default;

  // Hand a request to the backend. May block (sync: for the write; async:
  // only while the queue is full). Rethrows any pending writer error.
  virtual void submit(Request req) = 0;

  // Barrier: returns once every submitted request is on disk and the
  // last checkpoint is renamed into place, rethrowing any writer error.
  // The restart path and end-of-run use this.
  virtual void drain() = 0;

  [[nodiscard]] virtual bool async() const = 0;
};

enum class Mode { Sync, Async };

[[nodiscard]] const char* to_string(Mode mode);

// EMBER_IO=async|sync (unset => Sync). Anything else raises ember::Error.
[[nodiscard]] Mode mode_from_env();

inline constexpr std::size_t kDefaultQueueCapacity = 2;

// queue_capacity only applies to Mode::Async (clamped to >= 1).
[[nodiscard]] std::unique_ptr<Writer> make_writer(
    Mode mode, std::size_t queue_capacity = kDefaultQueueCapacity);

}  // namespace ember::io
