// Socket-backend-specific behavior: rank-death error propagation (a
// killed rank must produce a clean ember::Error on the launcher, never a
// hang), in-child failure surfacing, cross-backend metric parity, and
// the length-prefixed wire format.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "comm/transport.hpp"
#include "comm/wire.hpp"
#include "obs/metrics.hpp"
#include "transport_test_util.hpp"

namespace ember::comm {
namespace {

using test::make;

TEST(SocketTransport, KilledRankRaisesErrorNotHang) {
  const auto ctx = make(TransportKind::Socket, 4);
  EXPECT_THROW(ctx->run([](Transport& c) {
                 // Rank 2 dies without a word mid-protocol; the others
                 // block in a collective that needs it. EOF must cascade
                 // through every survivor and reach the launcher.
                 if (c.rank() == 2) ::_exit(7);
                 c.barrier();
               }),
               Error);
}

TEST(SocketTransport, DeadPeerDetectedOnDirectRecv) {
  const auto ctx = make(TransportKind::Socket, 2);
  try {
    ctx->run([](Transport& c) {
      if (c.rank() == 1) ::_exit(7);
      (void)c.recv_value<int>(1, 5);
    });
    FAIL() << "expected ember::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos);
  }
}

TEST(SocketTransport, ChildExceptionMessageReachesLauncher) {
  const auto ctx = make(TransportKind::Socket, 3);
  try {
    ctx->run([](Transport& c) {
      if (c.rank() == 1) throw Error("boom from rank 1");
    });
    FAIL() << "expected ember::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom from rank 1"),
              std::string::npos);
  }
}

TEST(SocketTransport, ChildExpectFailureFailsTheRun) {
  // EXPECT_* inside a forked rank records its failure in the child's
  // copy of gtest; the failure probe turns that into a nonzero child
  // exit, which must fail the run here in the launcher.
  const auto ctx = make(TransportKind::Socket, 2);
  EXPECT_THROW(ctx->run([](Transport& c) {
                 if (c.rank() == 1) {
                   EXPECT_EQ(1, 2) << "intentional in-child failure";
                 }
               }),
               Error);
}

TEST(SocketTransport, TrafficMetricsMatchThreadBackend) {
  // The same program must move the same comm.messages / comm.bytes on
  // either backend: user sends count once each, collectives count zero
  // (the Transport base sends their frames past the counting shell on
  // both). Socket children report their traffic over the control
  // channel and the launcher folds it into this process's registry.
  auto run_once = [](TransportKind kind) {
    auto& messages = obs::Registry::global().counter("comm.messages");
    auto& bytes = obs::Registry::global().counter("comm.bytes");
    const double m0 = messages.value();
    const double b0 = bytes.value();
    const auto ctx = make(kind, 2);
    ctx->run([](Transport& c) {
      c.send_value(1 - c.rank(), 4, 3.25);
      EXPECT_DOUBLE_EQ(c.recv_value<double>(1 - c.rank(), 4), 3.25);
      c.barrier();
      EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
      EXPECT_DOUBLE_EQ(c.broadcast(c.rank() == 0 ? 5.0 : 0.0), 5.0);
      (void)c.gather(1.0);
    });
    return std::pair<double, double>{messages.value() - m0,
                                     bytes.value() - b0};
  };
  const auto thread_delta = run_once(TransportKind::Thread);
  const auto socket_delta = run_once(TransportKind::Socket);
  EXPECT_DOUBLE_EQ(thread_delta.first, 2.0);
  EXPECT_DOUBLE_EQ(thread_delta.second, 16.0);
  EXPECT_DOUBLE_EQ(socket_delta.first, thread_delta.first);
  EXPECT_DOUBLE_EQ(socket_delta.second, thread_delta.second);
}

TEST(SocketTransport, MakeContextRecordsBackendGauges) {
  auto& transport_gauge = obs::Registry::global().gauge("comm.transport");
  auto& ranks_gauge = obs::Registry::global().gauge("comm.ranks");
  (void)make(TransportKind::Socket, 3);
  EXPECT_DOUBLE_EQ(transport_gauge.value(), 1.0);
  EXPECT_DOUBLE_EQ(ranks_gauge.value(), 3.0);
  (void)make(TransportKind::Thread, 2);
  EXPECT_DOUBLE_EQ(transport_gauge.value(), 0.0);
  EXPECT_DOUBLE_EQ(ranks_gauge.value(), 2.0);
}

TEST(SocketTransport, ContextIsReusableAcrossRuns) {
  const auto ctx = make(TransportKind::Socket, 2);
  for (int round = 0; round < 3; ++round) {
    const auto bytes = ctx->run_gather([round](Transport& c) {
      const double sum =
          c.allreduce_sum(static_cast<double>(c.rank() + round));
      if (c.rank() != 0) return std::vector<std::byte>{};
      return to_bytes(sum);
    });
    EXPECT_DOUBLE_EQ(from_bytes<double>(bytes), 2.0 * round + 1.0);
  }
}

TEST(TransportEnv, DefaultKindHonoursEmberTransport) {
  ASSERT_EQ(::setenv("EMBER_TRANSPORT", "socket", 1), 0);
  EXPECT_EQ(default_transport_kind(), TransportKind::Socket);
  ASSERT_EQ(::setenv("EMBER_TRANSPORT", "thread", 1), 0);
  EXPECT_EQ(default_transport_kind(), TransportKind::Thread);
  ASSERT_EQ(::setenv("EMBER_TRANSPORT", "bogus", 1), 0);
  EXPECT_THROW((void)default_transport_kind(), Error);
  ASSERT_EQ(::unsetenv("EMBER_TRANSPORT"), 0);
  EXPECT_EQ(default_transport_kind(), TransportKind::Thread);
}

TEST(Wire, FramesReassembleAcrossArbitrarySplits) {
  const std::string payload = "hello, ranks";
  const auto encoded = wire::encode_frame(42, payload.data(), payload.size());
  // Feed the encoded frame one byte at a time: no prefix short of the
  // full frame may yield anything.
  wire::FrameBuffer buffer;
  for (std::size_t i = 0; i + 1 < encoded.size(); ++i) {
    buffer.append(&encoded[i], 1);
    EXPECT_FALSE(buffer.pop().has_value());
  }
  buffer.append(&encoded.back(), 1);
  const auto frame = buffer.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->tag, 42);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(frame->payload.data()),
                        frame->payload.size()),
            payload);
  EXPECT_TRUE(buffer.empty());
}

TEST(Wire, BackToBackFramesPopInOrder) {
  wire::FrameBuffer buffer;
  std::vector<std::byte> stream;
  for (int i = 0; i < 5; ++i) {
    const auto f = wire::encode_frame(i, &i, sizeof(i));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  buffer.append(stream.data(), stream.size());
  for (int i = 0; i < 5; ++i) {
    const auto frame = buffer.pop();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, i);
    EXPECT_EQ(from_bytes<int>(frame->payload), i);
  }
  EXPECT_FALSE(buffer.pop().has_value());
}

TEST(Wire, CorruptLengthPrefixThrows) {
  wire::FrameHeader header;
  header.tag = 1;
  header.payload_bytes = ~0ULL;  // absurd length: must not allocate
  wire::FrameBuffer buffer;
  buffer.append(reinterpret_cast<const std::byte*>(&header), sizeof(header));
  EXPECT_THROW((void)buffer.pop(), Error);
}

}  // namespace
}  // namespace ember::comm
