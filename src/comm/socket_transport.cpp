#include "socket_transport.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ember::comm {

namespace {

// Control-channel frame tags (child -> launcher).
constexpr int kCtlError = -201;
constexpr int kCtlStats = -202;
constexpr int kCtlResult = -203;

struct ChildStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
};

// Blocking write for the control channel (the launcher is always
// draining it, so this cannot deadlock; rank-0 results may be large).
void ctl_write_all(int fd, const void* data, std::size_t bytes) {
  const std::byte* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < bytes) {
    const ssize_t n = ::send(fd, p + off, bytes - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Launcher gone: nothing useful left to report.
    return;
  }
}

void ctl_send_frame(int fd, int tag, const void* data, std::size_t bytes) {
  wire::FrameHeader header;
  header.tag = tag;
  header.payload_bytes = bytes;
  ctl_write_all(fd, &header, sizeof(header));
  if (bytes > 0) ctl_write_all(fd, data, bytes);
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

// ---- SocketTransport ------------------------------------------------------

SocketTransport::SocketTransport(int rank, std::vector<int> peer_fds)
    : rank_(rank), fds_(std::move(peer_fds)) {
  const std::size_t n = fds_.size();
  EMBER_REQUIRE(rank >= 0 && static_cast<std::size_t>(rank) < n,
                "rank outside world");
  inbuf_.resize(n);
  pending_.resize(n);
  dead_.assign(n, 0);
}

SocketTransport::~SocketTransport() {
  for (int& fd : fds_) {
    close_fd(fd);
    fd = -1;
  }
}

void SocketTransport::peer_dead_error(int peer, const char* when) const {
  throw Error("rank " + std::to_string(rank_) + ": connection to rank " +
              std::to_string(peer) + " closed during " + when +
              " (peer exited or died)");
}

void SocketTransport::drain(int peer) {
  if (dead_[static_cast<std::size_t>(peer)] != 0) return;
  const int fd = fds_[static_cast<std::size_t>(peer)];
  std::byte buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      inbuf_[static_cast<std::size_t>(peer)].append(buf,
                                                    static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: the peer is gone. Frames already received stay
    // deliverable; anyone who later waits on this peer gets an Error.
    dead_[static_cast<std::size_t>(peer)] = 1;
    close_fd(fd);
    fds_[static_cast<std::size_t>(peer)] = -1;
    break;
  }
  auto& buffer = inbuf_[static_cast<std::size_t>(peer)];
  while (auto frame = buffer.pop()) {
    pending_[static_cast<std::size_t>(peer)].push_back(std::move(*frame));
  }
}

void SocketTransport::progress_wait(int want_write_dest) {
  std::vector<pollfd> fds;
  std::vector<int> peers;
  fds.reserve(fds_.size());
  for (int r = 0; r < size(); ++r) {
    if (r == rank_ || dead_[static_cast<std::size_t>(r)] != 0) continue;
    pollfd p{};
    p.fd = fds_[static_cast<std::size_t>(r)];
    p.events = POLLIN;
    if (r == want_write_dest) p.events |= POLLOUT;
    fds.push_back(p);
    peers.push_back(r);
  }
  if (fds.empty()) return;  // every peer is dead; callers re-check state
  for (;;) {
    const int n = ::poll(fds.data(), fds.size(), -1);
    if (n > 0) break;
    EMBER_REQUIRE(n < 0 && errno == EINTR, "poll failed");
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      drain(peers[i]);
    }
  }
}

void SocketTransport::write_all(int dest, const void* data,
                                std::size_t bytes) {
  const std::byte* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < bytes) {
    if (dead_[static_cast<std::size_t>(dest)] != 0) {
      peer_dead_error(dest, "send");
    }
    const ssize_t n =
        ::send(fds_[static_cast<std::size_t>(dest)], p + off, bytes - off,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The peer's buffer is full. It may itself be blocked sending to
      // us, so keep receiving while we wait for writability.
      progress_wait(dest);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    dead_[static_cast<std::size_t>(dest)] = 1;
    close_fd(fds_[static_cast<std::size_t>(dest)]);
    fds_[static_cast<std::size_t>(dest)] = -1;
    peer_dead_error(dest, "send");
  }
}

void SocketTransport::do_send_bytes(int dest, int tag, const void* data,
                                    std::size_t bytes) {
  EMBER_REQUIRE(dest >= 0 && dest < size(), "invalid destination");
  if (dest == rank_) {
    wire::Frame frame;
    frame.tag = tag;
    frame.payload.resize(bytes);
    if (bytes > 0) std::memcpy(frame.payload.data(), data, bytes);
    pending_[static_cast<std::size_t>(rank_)].push_back(std::move(frame));
    return;
  }
  if (dead_[static_cast<std::size_t>(dest)] != 0) {
    peer_dead_error(dest, "send");
  }
  wire::FrameHeader header;
  header.tag = tag;
  header.payload_bytes = bytes;
  write_all(dest, &header, sizeof(header));
  if (bytes > 0) write_all(dest, data, bytes);
}

std::vector<std::byte> SocketTransport::do_recv_bytes(int source, int tag) {
  EMBER_REQUIRE(source >= 0 && source < size(), "invalid source");
  for (;;) {
    auto& queue = pending_[static_cast<std::size_t>(source)];
    const auto it = std::find_if(
        queue.begin(), queue.end(),
        [tag](const wire::Frame& f) { return f.tag == tag; });
    if (it != queue.end()) {
      auto payload = std::move(it->payload);
      queue.erase(it);
      return payload;
    }
    if (source == rank_) {
      EMBER_REQUIRE(false, "self receive with no matching self send");
    }
    if (dead_[static_cast<std::size_t>(source)] != 0) {
      peer_dead_error(source, "recv");
    }
    progress_wait(-1);
  }
}

std::pair<int, std::vector<std::byte>> SocketTransport::do_recv_bytes_any(
    int tag) {
  for (;;) {
    for (int s = 0; s < size(); ++s) {
      auto& queue = pending_[static_cast<std::size_t>(s)];
      const auto it = std::find_if(
          queue.begin(), queue.end(),
          [tag](const wire::Frame& f) { return f.tag == tag; });
      if (it != queue.end()) {
        auto payload = std::move(it->payload);
        queue.erase(it);
        return {s, std::move(payload)};
      }
    }
    bool any_alive = false;
    for (int s = 0; s < size(); ++s) {
      if (s != rank_ && dead_[static_cast<std::size_t>(s)] == 0) {
        any_alive = true;
      }
    }
    if (!any_alive) {
      throw Error("rank " + std::to_string(rank_) +
                  ": every peer closed during any-source recv");
    }
    progress_wait(-1);
  }
}

// ---- SocketContext --------------------------------------------------------

SocketContext::SocketContext(int ranks) : ranks_(ranks) {
  EMBER_REQUIRE(ranks >= 1 && ranks <= 512, "unsupported world size");
  // The mesh needs ranks*(ranks-1) stream fds plus 2*ranks control fds in
  // the launching process; refuse up front rather than fail mid-wiring.
  rlimit limit{};
  EMBER_REQUIRE(::getrlimit(RLIMIT_NOFILE, &limit) == 0, "getrlimit failed");
  const rlim_t needed =
      static_cast<rlim_t>(ranks) * static_cast<rlim_t>(ranks - 1) +
      2 * static_cast<rlim_t>(ranks) + 64;
  EMBER_REQUIRE(needed < limit.rlim_cur,
                "socket transport: rank count needs " + std::to_string(needed) +
                    " file descriptors but the limit is " +
                    std::to_string(limit.rlim_cur));
}

namespace {

[[noreturn]] void child_main(
    int rank, const std::vector<std::vector<int>>& mesh,
    const std::vector<int>& ctl_parent, const std::vector<int>& ctl_child,
    const std::function<std::vector<std::byte>(Transport&)>& fn) {
  const int n = static_cast<int>(mesh.size());
  // Keep only this rank's row of the mesh and its own control socket.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != rank) close_fd(mesh[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(j)]);
    }
    close_fd(ctl_parent[static_cast<std::size_t>(i)]);
    if (i != rank) close_fd(ctl_child[static_cast<std::size_t>(i)]);
  }
  const int ctl = ctl_child[static_cast<std::size_t>(rank)];
  obs::TraceSession::global().set_thread_name("rank-" +
                                              std::to_string(rank));
  int exit_code = 0;
  try {
    SocketTransport transport(rank, mesh[static_cast<std::size_t>(rank)]);
    std::vector<std::byte> result = fn(transport);
    ChildStats stats;
    stats.messages = transport.traffic().messages;
    stats.bytes = transport.traffic().bytes;
    ctl_send_frame(ctl, kCtlStats, &stats, sizeof(stats));
    if (rank == 0) {
      ctl_send_frame(ctl, kCtlResult, result.data(), result.size());
    }
    // A test harness may know about non-throwing assertion failures that
    // happened inside fn (gtest EXPECT_*); surface them as a distinct
    // exit code so the launcher can fail the run.
    if (rank_failure_probe() && rank_failure_probe()()) exit_code = 2;
  } catch (const std::exception& e) {
    const char* what = e.what();
    ctl_send_frame(ctl, kCtlError, what, std::strlen(what));
    exit_code = 1;
  } catch (...) {
    const char msg[] = "unknown exception";
    ctl_send_frame(ctl, kCtlError, msg, sizeof(msg) - 1);
    exit_code = 1;
  }
  close_fd(ctl);
  // _exit (not exit): never run the parent's atexit handlers or flush
  // its inherited buffers twice — but do flush what this child printed.
  std::fflush(nullptr);
  ::_exit(exit_code);
}

}  // namespace

std::vector<std::byte> SocketContext::run_gather(
    const std::function<std::vector<std::byte>(Transport&)>& fn) {
  const int n = ranks_;
  // mesh[i][j]: the fd rank i uses to talk to rank j (one socketpair per
  // unordered rank pair).
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n), -1));
  std::vector<int> ctl_parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ctl_child(static_cast<std::size_t>(n), -1);
  auto close_everything = [&] {
    for (auto& row : mesh) {
      for (int& fd : row) {
        close_fd(fd);
        fd = -1;
      }
    }
    for (int& fd : ctl_parent) {
      close_fd(fd);
      fd = -1;
    }
    for (int& fd : ctl_child) {
      close_fd(fd);
      fd = -1;
    }
  };
  try {
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        int sv[2];
        EMBER_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                      "socketpair failed");
        mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
        mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
      }
      int sv[2];
      EMBER_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                    "socketpair failed");
      ctl_parent[static_cast<std::size_t>(i)] = sv[0];
      ctl_child[static_cast<std::size_t>(i)] = sv[1];
    }
  } catch (...) {
    close_everything();
    throw;
  }

  // Forked children inherit stdio buffers; flush so buffered output is
  // not printed once per rank.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Wiring partially done: kill what we started, reap, and fail.
      for (int k = 0; k < r; ++k) {
        ::kill(pids[static_cast<std::size_t>(k)], SIGKILL);
      }
      for (int k = 0; k < r; ++k) {
        ::waitpid(pids[static_cast<std::size_t>(k)], nullptr, 0);
      }
      close_everything();
      throw Error("fork failed launching socket transport ranks");
    }
    if (pid == 0) {
      child_main(r, mesh, ctl_parent, ctl_child, fn);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // Launcher keeps only the parent ends of the control sockets.
  for (auto& row : mesh) {
    for (int& fd : row) {
      close_fd(fd);
      fd = -1;
    }
  }
  for (int& fd : ctl_child) {
    close_fd(fd);
    fd = -1;
  }

  // Collect every child's control stream to EOF, then reap it. Reading
  // rank 0 first keeps its (possibly large) result frame draining while
  // the child writes it.
  std::vector<std::byte> root_result;
  std::string first_error;
  std::uint64_t total_messages = 0;
  double total_bytes = 0.0;
  for (int r = 0; r < n; ++r) {
    wire::FrameBuffer buffer;
    std::byte buf[65536];
    const int fd = ctl_parent[static_cast<std::size_t>(r)];
    for (;;) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got > 0) {
        buffer.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      break;  // EOF: the child exited (or a hard error; treated the same)
    }
    close_fd(fd);
    ctl_parent[static_cast<std::size_t>(r)] = -1;

    bool reported_stats = false;
    while (auto frame = buffer.pop()) {
      if (frame->tag == kCtlStats) {
        const auto stats = from_bytes<ChildStats>(frame->payload);
        total_messages += stats.messages;
        total_bytes += stats.bytes;
        reported_stats = true;
      } else if (frame->tag == kCtlResult && r == 0) {
        root_result = std::move(frame->payload);
      } else if (frame->tag == kCtlError && first_error.empty()) {
        first_error = "rank " + std::to_string(r) + ": " +
                      std::string(reinterpret_cast<const char*>(
                                      frame->payload.data()),
                                  frame->payload.size());
      }
    }

    int status = 0;
    ::waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    if (first_error.empty()) {
      if (WIFSIGNALED(status)) {
        first_error = "rank " + std::to_string(r) + ": killed by signal " +
                      std::to_string(WTERMSIG(status));
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
        first_error =
            "rank " + std::to_string(r) + ": reported test failures";
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        first_error = "rank " + std::to_string(r) +
                      ": exited abnormally (status " +
                      std::to_string(status) + ")";
      } else if (!reported_stats) {
        first_error =
            "rank " + std::to_string(r) + ": exited without reporting";
      }
    }
  }

  // Child-side registries died with the children; fold their traffic into
  // the launching process so metric dumps match the thread backend.
  if (total_messages > 0) {
    obs::Registry::global()
        .counter("comm.messages")
        .add(static_cast<double>(total_messages));
    obs::Registry::global().counter("comm.bytes").add(total_bytes);
  }

  if (!first_error.empty()) {
    throw Error("socket transport run failed: " + first_error);
  }
  return root_result;
}

}  // namespace ember::comm
