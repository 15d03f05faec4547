#include "communicator.hpp"

#include <algorithm>
#include <cstring>
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
  mb.cv.notify_one();
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
