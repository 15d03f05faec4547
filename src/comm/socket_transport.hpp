#pragma once

// Socket backend: ranks are forked OS processes on this node, connected
// by a full mesh of AF_UNIX stream socketpairs carrying the
// length-prefixed wire format (comm/wire.hpp).
//
// SocketContext::run_gather forks one child per rank (fork without exec,
// so arbitrary driver lambdas — tests, benches, the interpreter — run
// unmodified in every rank), wires the mesh, and collects a control
// socketpair per rank through which each child reports its outcome: an
// error frame on exception, or a stats frame (traffic totals, blocked
// time) plus — for rank 0 — the gathered result payload. A rank that
// dies without reporting (crash, _exit, signal) produces EOF on its
// streams; peers that then await anything from it raise ember::Error,
// which cascades until every survivor exits, so a killed rank yields a
// clean launcher-side Error rather than a hang.
//
// The backend implements point-to-point only; the collectives are the
// Transport base's (rank-0 rooted, over these same frames, uncounted),
// so thread and socket runs of the same program fold reductions in the
// same order and report identical comm.messages / comm.bytes.
//
// This header is private to src/comm — drivers obtain ranks through
// comm::make_context (ember_lint's comm-backend-include rule enforces
// the boundary).

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "comm/transport.hpp"
#include "comm/wire.hpp"

namespace ember::comm {

class SocketTransport final : public Transport {
 public:
  // peer_fds[r] is this rank's stream socket to rank r (-1 at [rank]).
  // Takes ownership: the destructor closes every fd.
  SocketTransport(int rank, std::vector<int> peer_fds);
  ~SocketTransport() override;

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override {
    return static_cast<int>(fds_.size());
  }
  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Socket;
  }

 private:
  void do_send_bytes(int dest, int tag, const void* data,
                     std::size_t bytes) override;
  [[nodiscard]] std::vector<std::byte> do_recv_bytes(int source,
                                                     int tag) override;
  [[nodiscard]] std::pair<int, std::vector<std::byte>> do_recv_bytes_any(
      int tag) override;

  // Nonblocking write loop that keeps the receive side progressing while
  // the peer's buffer is full (both-sides-sending deadlock avoidance).
  void write_all(int dest, const void* data, std::size_t bytes);
  // Pull everything currently readable from one peer into pending_;
  // EOF marks the peer dead and closes its fd.
  void drain(int peer);
  // Block in poll() until any peer has input (optionally until
  // want_write_dest is also writable), then drain the readable ones.
  void progress_wait(int want_write_dest);
  [[noreturn]] void peer_dead_error(int peer, const char* when) const;

  // No mutexes and no GUARDED_BY on purpose: every rank is a forked
  // single-threaded process, so this state is process-private — the OS
  // socket layer is the only synchronization between ranks. If a rank
  // ever grows a second thread, this state must move behind a Mutex
  // first (DESIGN.md §14).
  int rank_;
  std::vector<int> fds_;
  std::vector<wire::FrameBuffer> inbuf_;
  std::vector<std::deque<wire::Frame>> pending_;
  std::vector<char> dead_;
};

class SocketContext final : public Context {
 public:
  explicit SocketContext(int ranks);

  [[nodiscard]] int size() const override { return ranks_; }
  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Socket;
  }

  [[nodiscard]] std::vector<std::byte> run_gather(
      const std::function<std::vector<std::byte>(Transport&)>& fn) override;

 private:
  int ranks_;
};

}  // namespace ember::comm
