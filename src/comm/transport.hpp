#pragma once

// The driver-facing communication interface.
//
// Everything outside src/comm programs against `Transport` (one rank's
// endpoint: typed send/recv, barrier, reductions, gather/broadcast,
// comm_seconds) and `Context` (a world of N ranks that runs the same
// function on every rank). Backends plug in behind the interface:
//
//   ThreadTransport  (comm/communicator.hpp)  ranks are threads of this
//       process exchanging messages through in-memory mailboxes — the
//       fast in-node path, deterministic, zero-copy.
//   SocketTransport  (comm/socket_transport.hpp)  ranks are forked OS
//       processes connected by a full mesh of local stream sockets with
//       a length-prefixed wire format — the real multi-process scaling
//       path of the paper's Figs. 3–5, with error propagation through a
//       control channel.
//
// A backend supplies only the three byte-level point-to-point
// primitives (do_send_bytes / do_recv_bytes / do_recv_bytes_any). The
// collectives are written once, here in the base, over those
// primitives: every non-root rank sends to the root, the root folds in
// rank order 0, 1, …, n−1 and sends the result back, so a reduction
// gives the same bits on every backend whatever order ranks arrive in.
//
// Backend headers are private to src/comm (enforced by ember_lint's
// comm-backend-include rule); construction goes through
// `make_context(TransportSpec)`. The `EMBER_TRANSPORT` environment
// variable and the interpreter's `transport thread|socket` command pick
// the backend at run time.
//
// Semantics shared by every backend (the contract the domain-
// decomposition code is written against, exactly as it would be against
// MPI): blocking tagged send/recv with exact (source, tag) matching and
// per-source-per-tag FIFO order, collectives that every rank must enter,
// and `comm_seconds()` accounting of time blocked in communication.
// Negative tags are reserved for the collectives' internal frames.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace ember::comm {

enum class TransportKind { Thread, Socket };

[[nodiscard]] const char* to_string(TransportKind kind);
// Accepts "thread" or "socket"; anything else throws ember::Error.
[[nodiscard]] TransportKind transport_kind_from_string(const std::string& s);
// EMBER_TRANSPORT=thread|socket, defaulting to Thread when unset/empty.
[[nodiscard]] TransportKind default_transport_kind();

struct TransportSpec {
  TransportKind kind = TransportKind::Thread;
  int ranks = 1;
};

// Trivially-copyable value <-> byte-vector helpers, shared by the typed
// wrappers below, the wire format, and drivers shipping results out of
// process-backed ranks (Context::run_gather).
template <typename T>
[[nodiscard]] std::vector<std::byte> to_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::byte> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

template <typename T>
[[nodiscard]] T from_bytes(const std::vector<std::byte>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>);
  EMBER_REQUIRE(bytes.size() == sizeof(T), "payload size mismatch");
  T out;
  std::memcpy(&out, bytes.data(), sizeof(T));
  return out;
}

// One rank's endpoint. The public methods are non-virtual shells that
// add the backend-independent bookkeeping — traffic metrics on send,
// blocked-time accounting on recv and collectives, the single typed
// serialization layer and the collectives themselves — around the
// virtual do_* backend primitives.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual TransportKind kind() const = 0;

  // ---- point to point (blocking, byte-level) ----
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);
  [[nodiscard]] std::vector<std::byte> recv_bytes(int source, int tag);
  // Any-source receive (MPI_ANY_SOURCE analog): the next message with
  // this tag from whichever rank sent one, with its source. The one
  // deliberately nondeterministic primitive — pull-model servers
  // (parsplice work manager) need it for load balancing.
  [[nodiscard]] std::pair<int, std::vector<std::byte>> recv_bytes_any(int tag);

  // Typed wrappers for trivially copyable payloads: the one serialization
  // helper both backends share (backends only ever see bytes).
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, data.data(), data.size() * sizeof(T));
  }
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = recv_bytes(source, tag);
    EMBER_REQUIRE(raw.size() % sizeof(T) == 0, "message size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    // Zero-length messages are legal (empty halo legs); memcpy's pointer
    // arguments must not be null even for size 0, so skip the copy.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }
  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, &value, sizeof(T));
  }
  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto raw = recv_bytes(source, tag);
    EMBER_REQUIRE(raw.size() == sizeof(T), "message size mismatch");
    T out;
    std::memcpy(&out, raw.data(), sizeof(T));
    return out;
  }

  // ---- collectives (all ranks must call) ----
  // Their frames bypass the traffic counters: only user sends count
  // toward comm.messages / comm.bytes. Reductions fold in rank order.
  void barrier();
  double allreduce_sum(double value);
  long allreduce_sum(long value);
  double allreduce_max(double value);
  bool allreduce_or(bool value);
  // Gather one double per rank to root (result valid on root only) and
  // broadcast from root.
  [[nodiscard]] std::vector<double> gather(double value, int root = 0);
  double broadcast(double value, int root = 0);

  // Elapsed seconds this rank has spent blocked in communication calls.
  [[nodiscard]] double comm_seconds() const { return comm_seconds_; }
  void reset_comm_seconds() { comm_seconds_ = 0.0; }

  // Rank-local traffic totals (what this endpoint pushed into the
  // comm.messages / comm.bytes counters); process-backed contexts use
  // them to fold child traffic back into the launching registry.
  struct Traffic {
    std::uint64_t messages = 0;
    double bytes = 0.0;
  };
  [[nodiscard]] Traffic traffic() const { return traffic_; }

 protected:
  Transport() = default;

  // The backend primitives: blocking, uncounted, untimed, with exact
  // (source, tag) matching and per-source FIFO order.
  virtual void do_send_bytes(int dest, int tag, const void* data,
                             std::size_t bytes) = 0;
  [[nodiscard]] virtual std::vector<std::byte> do_recv_bytes(int source,
                                                             int tag) = 0;
  [[nodiscard]] virtual std::pair<int, std::vector<std::byte>>
  do_recv_bytes_any(int tag) = 0;

 private:
  // The collective protocol's two legs. to_root: every other rank sends
  // its frame to root, which receives them in rank order and returns
  // all n frames indexed by rank (its own included); the others return
  // none. from_root: root sends its frame to every other rank in rank
  // order; every rank returns root's frame.
  [[nodiscard]] std::vector<std::vector<std::byte>> to_root(
      int root, int tag, const void* data, std::size_t bytes);
  [[nodiscard]] std::vector<std::byte> from_root(int root, int tag,
                                                 const void* data,
                                                 std::size_t bytes);
  template <typename T, typename Op>
  [[nodiscard]] T allreduce(T value, Op op);

  // Thread-confinement contract (why these carry no GUARDED_BY): a
  // Transport is one rank's endpoint, and exactly one thread — that
  // rank's thread — ever calls into it. The shells below mutate these on
  // that thread only; cross-thread state lives behind do_* in the
  // backend (World's guarded mailboxes).
  // Sharing one Transport across threads is a contract violation, not a
  // supported-but-racy mode.
  double comm_seconds_ = 0.0;
  Traffic traffic_;
};

// A world of N ranks behind one backend. run() executes fn on every rank
// concurrently and joins; any rank's failure surfaces as ember::Error.
class Context {
 public:
  virtual ~Context() = default;

  [[nodiscard]] virtual int size() const = 0;
  [[nodiscard]] virtual TransportKind kind() const = 0;

  // Run fn on every rank; rank 0's return value is delivered to the
  // caller in the *launching* process (for the socket backend, shipped
  // from the rank-0 child over the control channel). Drivers that need
  // state back from a run serialize it here (see to_bytes / the
  // checkpoint byte helpers in md/io.hpp).
  [[nodiscard]] virtual std::vector<std::byte> run_gather(
      const std::function<std::vector<std::byte>(Transport&)>& fn) = 0;

  void run(const std::function<void(Transport&)>& fn);
};

// Factory: the only way drivers obtain a communication context.
[[nodiscard]] std::unique_ptr<Context> make_context(const TransportSpec& spec);

// Process-backed ranks run user code in forked children, where a test
// framework's non-throwing assertion failures (gtest EXPECT_*) would
// otherwise vanish with the child. A harness may install a probe that is
// consulted after the rank body returns; a true result turns into a
// nonzero rank exit, which the launcher reports as ember::Error.
void set_rank_failure_probe(std::function<bool()> probe);
[[nodiscard]] const std::function<bool()>& rank_failure_probe();

}  // namespace ember::comm
