#pragma once

// Thread backend: in-process message passing with MPI-like semantics.
//
// A World hosts N ranks; each rank executes the same function on its own
// thread and communicates through mailboxes (mutex + condition variable
// per destination). Deterministic given deterministic rank programs:
// recv matches (source, tag) exactly, so no wildcard races exist. The
// backend implements point-to-point only; barrier and the reductions
// are the Transport base's, carried by these same mailboxes.
//
// This is the fast in-node path behind the comm::Transport interface
// (comm/transport.hpp); the multi-process path is SocketTransport. This
// header is private to src/comm — drivers obtain ranks through
// comm::make_context and program against Transport (ember_lint's
// comm-backend-include rule enforces the boundary).

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "comm/transport.hpp"
#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ember::comm {

class World;

class ThreadTransport final : public Transport {
 public:
  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override;
  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Thread;
  }

 private:
  friend class World;
  ThreadTransport(World& world, int rank) : world_(world), rank_(rank) {}

  void do_send_bytes(int dest, int tag, const void* data,
                     std::size_t bytes) override;
  [[nodiscard]] std::vector<std::byte> do_recv_bytes(int source,
                                                     int tag) override;
  [[nodiscard]] std::pair<int, std::vector<std::byte>> do_recv_bytes_any(
      int tag) override;

  World& world_;
  int rank_;
};

// The ranks' shared state: one mailbox per rank, nothing else. Only the
// owning rank's thread ever waits on a mailbox's cv (both receives wait
// on the receiver's own mailbox), so a send wakes it with notify_one.
class World {
 public:
  explicit World(int size);

  [[nodiscard]] int size() const { return size_; }

  // Execute fn on every rank concurrently and join. Exceptions thrown by
  // any rank are rethrown (the first one) after all threads complete.
  void run(const std::function<void(ThreadTransport&)>& fn);

 private:
  friend class ThreadTransport;

  struct Message {
    int tag;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    Mutex mutex;
    CondVar cv;
    // One queue per source rank: (source, tag) matching scans only the
    // source's queue, preserving per-source FIFO order like MPI.
    std::vector<std::deque<Message>> from EMBER_GUARDED_BY(mutex);
  };

  Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }

  // size_ and the mailbox pointers are set in the constructor before any
  // rank thread exists and never change: immutable topology, no guard.
  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

class ThreadContext final : public Context {
 public:
  explicit ThreadContext(int ranks) : world_(ranks) {}

  [[nodiscard]] int size() const override { return world_.size(); }
  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Thread;
  }

  [[nodiscard]] std::vector<std::byte> run_gather(
      const std::function<std::vector<std::byte>(Transport&)>& fn) override;

 private:
  World world_;
};

}  // namespace ember::comm
