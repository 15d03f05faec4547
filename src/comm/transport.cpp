#include "transport.hpp"

#include <algorithm>
#include <cstdlib>

#include "comm/communicator.hpp"
#include "comm/socket_transport.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace ember::comm {

namespace {
// Internal tags of the collectives' frames (user code uses
// non-negative tags).
constexpr int kTagGather = -101;
constexpr int kTagBcast = -102;
constexpr int kTagBarrier = -103;
constexpr int kTagReduce = -104;
constexpr int kTagReduceResult = -105;

// Process-global traffic counters. Registered once; per-call cost is one
// sharded relaxed fetch_add each. Both backends feed the same names, so
// thread and socket runs of the same program report identical traffic.
struct CommMetrics {
  obs::Counter& messages;
  obs::Counter& bytes;
  static CommMetrics& get() {
    static CommMetrics m{obs::Registry::global().counter("comm.messages"),
                         obs::Registry::global().counter("comm.bytes")};
    return m;
  }
};

// Set-before-run contract, so no lock: the harness installs the probe
// once on the main thread before any Context::run spawns rank threads or
// forks rank processes, and nothing mutates it while ranks are live.
std::function<bool()>& probe_slot() {
  static std::function<bool()> probe;
  return probe;
}
}  // namespace

const char* to_string(TransportKind kind) {
  return kind == TransportKind::Thread ? "thread" : "socket";
}

TransportKind transport_kind_from_string(const std::string& s) {
  if (s == "thread") return TransportKind::Thread;
  if (s == "socket") return TransportKind::Socket;
  EMBER_REQUIRE(false, "unknown transport '" + s + "' (thread|socket)");
}

TransportKind default_transport_kind() {
  const char* env = std::getenv("EMBER_TRANSPORT");
  if (env == nullptr || env[0] == '\0') return TransportKind::Thread;
  return transport_kind_from_string(env);
}

void set_rank_failure_probe(std::function<bool()> probe) {
  probe_slot() = std::move(probe);
}

const std::function<bool()>& rank_failure_probe() { return probe_slot(); }

// ---- Transport base shells ------------------------------------------------

void Transport::send_bytes(int dest, int tag, const void* data,
                           std::size_t bytes) {
  CommMetrics& m = CommMetrics::get();
  m.messages.inc();
  m.bytes.add(static_cast<double>(bytes));
  ++traffic_.messages;
  traffic_.bytes += static_cast<double>(bytes);
  do_send_bytes(dest, tag, data, bytes);
}

std::vector<std::byte> Transport::recv_bytes(int source, int tag) {
  WallTimer timer;
  auto out = do_recv_bytes(source, tag);
  comm_seconds_ += timer.seconds();
  return out;
}

std::pair<int, std::vector<std::byte>> Transport::recv_bytes_any(int tag) {
  WallTimer timer;
  auto out = do_recv_bytes_any(tag);
  comm_seconds_ += timer.seconds();
  return out;
}

std::vector<std::vector<std::byte>> Transport::to_root(int root, int tag,
                                                      const void* data,
                                                      std::size_t bytes) {
  if (rank() != root) {
    do_send_bytes(root, tag, data, bytes);
    return {};
  }
  std::vector<std::vector<std::byte>> frames(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    if (r != root) frames[static_cast<std::size_t>(r)] = do_recv_bytes(r, tag);
  }
  const auto* own = static_cast<const std::byte*>(data);
  frames[static_cast<std::size_t>(root)].assign(own, own + bytes);
  return frames;
}

std::vector<std::byte> Transport::from_root(int root, int tag,
                                            const void* data,
                                            std::size_t bytes) {
  if (rank() != root) return do_recv_bytes(root, tag);
  for (int r = 0; r < size(); ++r) {
    if (r != root) do_send_bytes(r, tag, data, bytes);
  }
  const auto* own = static_cast<const std::byte*>(data);
  return {own, own + bytes};
}

template <typename T, typename Op>
T Transport::allreduce(T value, Op op) {
  WallTimer timer;
  const auto frames = to_root(0, kTagReduce, &value, sizeof(T));
  for (std::size_t r = 1; r < frames.size(); ++r) {
    value = op(value, from_bytes<T>(frames[r]));
  }
  value = from_bytes<T>(from_root(0, kTagReduceResult, &value, sizeof(T)));
  comm_seconds_ += timer.seconds();
  return value;
}

void Transport::barrier() {
  WallTimer timer;
  (void)to_root(0, kTagBarrier, nullptr, 0);
  (void)from_root(0, kTagBarrier, nullptr, 0);
  comm_seconds_ += timer.seconds();
}

double Transport::allreduce_sum(double value) {
  return allreduce(value, [](double a, double b) { return a + b; });
}

long Transport::allreduce_sum(long value) {
  return allreduce(value, [](long a, long b) { return a + b; });
}

double Transport::allreduce_max(double value) {
  return allreduce(value, [](double a, double b) { return std::max(a, b); });
}

bool Transport::allreduce_or(bool value) {
  return allreduce(value, [](bool a, bool b) { return a || b; });
}

std::vector<double> Transport::gather(double value, int root) {
  WallTimer timer;
  std::vector<double> out;
  for (const auto& frame : to_root(root, kTagGather, &value, sizeof(value))) {
    out.push_back(from_bytes<double>(frame));
  }
  comm_seconds_ += timer.seconds();
  return out;
}

double Transport::broadcast(double value, int root) {
  WallTimer timer;
  value = from_bytes<double>(from_root(root, kTagBcast, &value, sizeof(value)));
  comm_seconds_ += timer.seconds();
  return value;
}

// ---- Context --------------------------------------------------------------

void Context::run(const std::function<void(Transport&)>& fn) {
  (void)run_gather([&fn](Transport& t) {
    fn(t);
    return std::vector<std::byte>{};
  });
}

std::unique_ptr<Context> make_context(const TransportSpec& spec) {
  EMBER_REQUIRE(spec.ranks >= 1, "transport context needs >= 1 rank");
  // 0 = thread, 1 = socket: lets a metrics dump attribute a run to its
  // backend (the launching process owns the registry either way).
  obs::Registry::global()
      .gauge("comm.transport")
      .set(spec.kind == TransportKind::Thread ? 0.0 : 1.0);
  obs::Registry::global().gauge("comm.ranks").set(spec.ranks);
  if (spec.kind == TransportKind::Socket) {
    return std::make_unique<SocketContext>(spec.ranks);
  }
  return std::make_unique<ThreadContext>(spec.ranks);
}

}  // namespace ember::comm
