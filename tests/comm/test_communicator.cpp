// Tests of the message-passing layer, run against both transport
// backends (thread ranks and forked socket-connected processes) through
// the public comm::Transport interface.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <thread>
#include <tuple>

#include "comm/transport.hpp"
#include "transport_test_util.hpp"

namespace ember::comm {
namespace {

using test::kBothKinds;
using test::make;

class Transports : public ::testing::TestWithParam<TransportKind> {};

TEST_P(Transports, PointToPointRoundTrip) {
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      std::vector<double> data{1.0, 2.0, 3.5};
      c.send(1, 7, data);
      const auto back = c.recv<double>(1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 7.0);
    } else {
      auto data = c.recv<double>(0, 7);
      for (auto& v : data) v *= 2.0;
      c.send(0, 8, data);
    }
  });
}

TEST_P(Transports, TagsAreMatchedNotJustOrder) {
  // Send two messages with different tags; receive them out of order.
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      c.send_value(1, 1, 111);
      c.send_value(1, 2, 222);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 2), 222);
      EXPECT_EQ(c.recv_value<int>(0, 1), 111);
    }
  });
}

TEST_P(Transports, SameTagPreservesFifoPerSource) {
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST_P(Transports, SelfSendWorks) {
  const auto ctx = make(GetParam(), 1);
  ctx->run([](Transport& c) {
    c.send_value(0, 5, 3.25);
    EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 5), 3.25);
  });
}

TEST_P(Transports, AnySourceRecvDeliversFromEveryRank) {
  const auto ctx = make(GetParam(), 4);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      long seen_mask = 0;
      for (int i = 0; i < c.size() - 1; ++i) {
        const auto [source, payload] = c.recv_bytes_any(9);
        EXPECT_EQ(from_bytes<int>(payload), source * 100);
        seen_mask |= 1L << source;
      }
      EXPECT_EQ(seen_mask, 0b1110);
    } else {
      c.send_value(0, 9, c.rank() * 100);
    }
  });
}

TEST_P(Transports, KindAndSizeAreReported) {
  const auto ctx = make(GetParam(), 2);
  EXPECT_EQ(ctx->kind(), GetParam());
  EXPECT_EQ(ctx->size(), 2);
  const auto kind = GetParam();
  ctx->run([kind](Transport& c) {
    EXPECT_EQ(c.kind(), kind);
    EXPECT_EQ(c.size(), 2);
  });
}

TEST_P(Transports, RunGatherShipsRootResult) {
  const auto ctx = make(GetParam(), 3);
  const auto bytes = ctx->run_gather([](Transport& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank()));
    if (c.rank() != 0) return std::vector<std::byte>{};
    return to_bytes(sum);
  });
  EXPECT_DOUBLE_EQ(from_bytes<double>(bytes), 3.0);
}

TEST_P(Transports, ExceptionsPropagateFromRanks) {
  const auto ctx = make(GetParam(), 2);
  EXPECT_THROW(ctx->run([](Transport& c) {
                 if (c.rank() == 1) throw Error("rank 1 failed");
                 // Rank 0 must not deadlock waiting: no communication here.
               }),
               Error);
}

INSTANTIATE_TEST_SUITE_P(Comm, Transports, ::testing::ValuesIn(kBothKinds),
                         test::kind_name);

class CommCollectives
    : public ::testing::TestWithParam<std::tuple<TransportKind, int>> {
 protected:
  [[nodiscard]] TransportKind kind() const { return std::get<0>(GetParam()); }
  [[nodiscard]] int ranks() const { return std::get<1>(GetParam()); }
};

TEST_P(CommCollectives, AllreduceSumAndMax) {
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
    const long lsum = c.allreduce_sum(static_cast<long>(2));
    EXPECT_EQ(lsum, 2L * n);
    const double mx = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(mx, n - 1.0);
    EXPECT_TRUE(c.allreduce_or(c.rank() == n - 1));
    EXPECT_FALSE(c.allreduce_or(false));
  });
}

TEST_P(CommCollectives, RepeatedReductionsStayConsistent) {
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    for (int round = 0; round < 50; ++round) {
      const double sum = c.allreduce_sum(static_cast<double>(round));
      EXPECT_DOUBLE_EQ(sum, static_cast<double>(round) * n);
    }
  });
}

TEST_P(CommCollectives, GatherAndBroadcast) {
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    const auto gathered = c.gather(static_cast<double>(c.rank() * 10), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(static_cast<int>(gathered.size()), n);
      for (int r = 0; r < n; ++r) EXPECT_DOUBLE_EQ(gathered[r], r * 10.0);
    }
    const double b = c.broadcast(c.rank() == 0 ? 42.5 : -1.0, 0);
    EXPECT_DOUBLE_EQ(b, 42.5);
  });
}

// A reduction's bits must not depend on which rank arrives first. Rank
// 0 holds 1 and every other rank t, under half an ulp of 1: the rank-
// order fold adds each t to 1 and rounds it away, while any order that
// adds two ranks' t before rank 0's 1 keeps them. Ranks enter in
// reverse (rank r sleeps in proportion to n-1-r), so a fold in arrival
// order gives other bits.
TEST_P(CommCollectives, AllreduceSumFoldsInRankOrderWhateverTheArrival) {
  const int n = ranks();
  const double t = 0.75 * std::ldexp(1.0, -53);
  const auto value = [t](int rank) { return rank == 0 ? 1.0 : t; };
  double rank_order = value(0);
  for (int r = 1; r < n; ++r) rank_order += value(r);
  double arrival_order = value(n - 1);
  for (int r = n - 2; r >= 0; --r) arrival_order += value(r);
  if (n >= 3) {
    ASSERT_NE(std::bit_cast<std::uint64_t>(arrival_order),
              std::bit_cast<std::uint64_t>(rank_order));
  }
  const auto ctx = make(kind(), n);
  ctx->run([&](Transport& c) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5) *
                                (c.size() - 1 - c.rank()));
    const double sum = c.allreduce_sum(value(c.rank()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum),
              std::bit_cast<std::uint64_t>(rank_order))
        << "rank " << c.rank() << " got " << sum;
  });
}

// Barriers must synchronize ranks on either backend; without relying on
// shared memory, prove it by bouncing a strictly-phased token through
// rank 0.
TEST_P(CommCollectives, BarrierOrdersPhases) {
  const auto ctx = make(kind(), ranks());
  ctx->run([](Transport& c) {
    for (int phase = 0; phase < 5; ++phase) {
      if (c.rank() != 0) c.send_value(0, 21, phase);
      c.barrier();
      if (c.rank() == 0) {
        // Every rank's phase message must have arrived before the
        // barrier released us.
        for (int r = 1; r < c.size(); ++r) {
          EXPECT_EQ(c.recv_value<int>(r, 21), phase);
        }
      }
      c.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Comm, CommCollectives,
    ::testing::Combine(::testing::ValuesIn(kBothKinds),
                       ::testing::Values(1, 2, 3, 4, 8)),
    test::kind_size_name);

// Thread-only: observes rank progress through a shared atomic, which
// only exists when the ranks share an address space.
class ThreadCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCollectives, BarrierSynchronizes) {
  const int n = GetParam();
  const auto ctx = make(TransportKind::Thread, n);
  std::atomic<int> phase_count{0};
  ctx->run([&](Transport& c) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_count.fetch_add(1, std::memory_order_seq_cst);
      c.barrier();
      // After the barrier every rank must have incremented for this phase.
      EXPECT_GE(phase_count.load(std::memory_order_seq_cst), (phase + 1) * n);
      c.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ThreadCollectives,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(TransportSpecTest, KindParsingRoundTrips) {
  EXPECT_EQ(transport_kind_from_string("thread"), TransportKind::Thread);
  EXPECT_EQ(transport_kind_from_string("socket"), TransportKind::Socket);
  EXPECT_STREQ(to_string(TransportKind::Thread), "thread");
  EXPECT_STREQ(to_string(TransportKind::Socket), "socket");
  EXPECT_THROW((void)transport_kind_from_string("carrier-pigeon"), Error);
}

}  // namespace
}  // namespace ember::comm
