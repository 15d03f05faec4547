#include "communicator.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace ember::comm {

World::World(int size) : size_(size) {
  EMBER_REQUIRE(size >= 1 && size <= 512, "unsupported world size");
  mailboxes_.reserve(size);
  for (int r = 0; r < size; ++r) {
    auto mb = std::make_unique<Mailbox>();
    mb->from.resize(size);
    mailboxes_.push_back(std::move(mb));
  }
}

void World::run(const std::function<void(ThreadTransport&)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(size_);
  threads.reserve(size_);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      obs::TraceSession::global().set_thread_name("rank-" + std::to_string(r));
      ThreadTransport comm(*this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

int ThreadTransport::size() const { return world_.size(); }

void ThreadTransport::do_send_bytes(int dest, int tag, const void* data,
                                    std::size_t bytes) {
  EMBER_REQUIRE(dest >= 0 && dest < world_.size(), "invalid destination");
  auto& mb = world_.mailbox(dest);
  World::Message msg;
  msg.tag = tag;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  {
    LockGuard lock(mb.mutex);
    mb.from[rank_].push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

std::vector<std::byte> ThreadTransport::do_recv_bytes(int source, int tag) {
  EMBER_REQUIRE(source >= 0 && source < world_.size(), "invalid source");
  auto& mb = world_.mailbox(rank_);
  LockGuard lock(mb.mutex);
  auto& queue = mb.from[source];
  for (;;) {
    const auto it = std::find_if(queue.begin(), queue.end(),
                                 [tag](const World::Message& m) {
                                   return m.tag == tag;
                                 });
    if (it != queue.end()) {
      auto payload = std::move(it->payload);
      queue.erase(it);
      return payload;
    }
    mb.cv.wait(mb.mutex);
  }
}

std::pair<int, std::vector<std::byte>> ThreadTransport::do_recv_bytes_any(
    int tag) {
  auto& mb = world_.mailbox(rank_);
  LockGuard lock(mb.mutex);
  for (;;) {
    for (int s = 0; s < world_.size(); ++s) {
      auto& queue = mb.from[s];
      const auto it = std::find_if(queue.begin(), queue.end(),
                                   [tag](const World::Message& m) {
                                     return m.tag == tag;
                                   });
      if (it != queue.end()) {
        auto payload = std::move(it->payload);
        queue.erase(it);
        return {s, std::move(payload)};
      }
    }
    mb.cv.wait(mb.mutex);
  }
}

void ThreadTransport::do_barrier() {
  LockGuard lock(world_.barrier_mutex_);
  const long gen = world_.barrier_generation_;
  if (++world_.barrier_count_ == world_.size_) {
    world_.barrier_count_ = 0;
    ++world_.barrier_generation_;
    world_.barrier_cv_.notify_all();
  } else {
    while (world_.barrier_generation_ == gen) {
      world_.barrier_cv_.wait(world_.barrier_mutex_);
    }
  }
}

// Reduction skeleton: accumulate under the lock; the last rank to arrive
// publishes the result and bumps the generation. Correctness of result
// lifetime: the next reduction can only overwrite result_field after all
// ranks enter it, which requires all ranks to have returned (and thus
// read the result) from this one.
#define EMBER_REDUCE_BODY(scratch_field, result_field, op_expr, init_value) \
  LockGuard lock(world_.reduce_mutex_);                                     \
  const long gen = world_.reduce_generation_;                               \
  if (world_.reduce_count_ == 0) world_.scratch_field = (init_value);       \
  world_.scratch_field = (op_expr);                                         \
  if (++world_.reduce_count_ == world_.size_) {                             \
    world_.result_field = world_.scratch_field;                             \
    world_.reduce_count_ = 0;                                               \
    ++world_.reduce_generation_;                                            \
    world_.reduce_cv_.notify_all();                                         \
  } else {                                                                  \
    while (world_.reduce_generation_ == gen) {                              \
      world_.reduce_cv_.wait(world_.reduce_mutex_);                         \
    }                                                                       \
  }                                                                         \
  return world_.result_field;

double ThreadTransport::do_allreduce_sum(double value) {
  EMBER_REDUCE_BODY(reduce_double_, reduce_result_double_,
                    world_.reduce_double_ + value, 0.0)
}

long ThreadTransport::do_allreduce_sum(long value) {
  EMBER_REDUCE_BODY(reduce_long_, reduce_result_long_,
                    world_.reduce_long_ + value, 0L)
}

double ThreadTransport::do_allreduce_max(double value) {
  EMBER_REDUCE_BODY(reduce_double_, reduce_result_double_,
                    std::max(world_.reduce_double_, value),
                    -std::numeric_limits<double>::infinity())
}

bool ThreadTransport::do_allreduce_or(bool value) {
  EMBER_REDUCE_BODY(reduce_bool_, reduce_result_bool_,
                    world_.reduce_bool_ || value, false)
}

#undef EMBER_REDUCE_BODY

std::vector<std::byte> ThreadContext::run_gather(
    const std::function<std::vector<std::byte>(Transport&)>& fn) {
  std::vector<std::byte> root_result;
  world_.run([&fn, &root_result](ThreadTransport& t) {
    auto r = fn(t);
    if (t.rank() == 0) root_result = std::move(r);
  });
  return root_result;
}

}  // namespace ember::comm
