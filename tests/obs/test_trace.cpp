// Scoped spans: nesting depth, per-thread attribution and the Chrome
// trace-event JSON export.
//
// The TraceSession is a process-wide singleton; every test clears it and
// leaves it stopped, so ordering between tests does not matter.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace ember::obs {
namespace {

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSession::global().stop();
    TraceSession::global().clear();
  }
  void TearDown() override {
    TraceSession::global().stop();
    TraceSession::global().clear();
  }
};

TEST_F(ObsTrace, DisabledSessionRecordsNothing) {
  {
    ScopedSpan outer("outer", "test");
    ScopedSpan inner("inner", "test");
  }
  EXPECT_TRUE(TraceSession::global().snapshot().empty());
}

TEST_F(ObsTrace, NestedSpansRecordDepthAndDuration) {
  auto& session = TraceSession::global();
  session.start();
  {
    ScopedSpan outer("outer", "test");
    {
      ScopedSpan inner("inner", "test");
    }
    {
      ScopedSpan sibling("sibling", "test");
    }
  }
  session.stop();

  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Spans land in the buffer at destruction: inner-before-outer order.
  int outer_depth = -1, inner_depth = -1, sibling_depth = -1;
  for (const auto& e : events) {
    EXPECT_GE(e.dur_ns, 0);
    EXPECT_GE(e.start_ns, 0);
    const std::string name = e.name;
    if (name == "outer") outer_depth = e.depth;
    if (name == "inner") inner_depth = e.depth;
    if (name == "sibling") sibling_depth = e.depth;
  }
  EXPECT_EQ(outer_depth, 0);
  EXPECT_EQ(inner_depth, 1);
  EXPECT_EQ(sibling_depth, 1);
  EXPECT_EQ(session.count("outer"), 1);
  EXPECT_EQ(session.count("inner"), 1);
}

TEST_F(ObsTrace, SpansCarryTheIntegerArgument) {
  auto& session = TraceSession::global();
  session.start();
  {
    ScopedSpan s("step", "step", nullptr, "step", 42);
  }
  session.stop();
  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_NE(events[0].arg_key, nullptr);
  EXPECT_STREQ(events[0].arg_key, "step");
  EXPECT_EQ(events[0].arg_val, 42);
}

TEST_F(ObsTrace, ThreadsGetDistinctIdsAndNames) {
  auto& session = TraceSession::global();
  session.start();
  {
    ScopedSpan main_span("on-main", "test");
  }
  std::thread worker([&session] {
    session.set_thread_name("test-worker");
    ScopedSpan s("on-worker", "test");
  });
  worker.join();
  session.stop();

  const auto events = session.snapshot();
  ASSERT_EQ(events.size(), 2u);
  int main_tid = -1, worker_tid = -1;
  for (const auto& e : events) {
    if (std::string(e.name) == "on-main") main_tid = e.tid;
    if (std::string(e.name) == "on-worker") worker_tid = e.tid;
  }
  ASSERT_GE(main_tid, 0);
  ASSERT_GE(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);

  // The thread-name metadata event reaches the Chrome export.
  const std::string json = session.chrome_trace().dump(0);
  EXPECT_NE(json.find("test-worker"), std::string::npos);
}

TEST_F(ObsTrace, ChromeTraceExportIsValidJson) {
  auto& session = TraceSession::global();
  session.start();
  {
    ScopedSpan outer("phase", "test", nullptr, "step", 7);
    ScopedSpan inner("kernel", "test");
  }
  session.stop();

  const Json doc = session.chrome_trace();
  const std::string text = doc.dump(2);
  EXPECT_TRUE(json_valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"phase\""), std::string::npos);
  EXPECT_NE(text.find("\"kernel\""), std::string::npos);
  // One-line dumps parse too (the interpreter writes indent=0 files).
  EXPECT_TRUE(json_valid(doc.dump(0)));
}

TEST_F(ObsTrace, ClearDropsEventsButKeepsRecordingAbility) {
  auto& session = TraceSession::global();
  session.start();
  { ScopedSpan s("before", "test"); }
  session.clear();
  EXPECT_TRUE(session.snapshot().empty());
  { ScopedSpan s("after", "test"); }
  session.stop();
  EXPECT_EQ(session.count("before"), 0);
  EXPECT_EQ(session.count("after"), 1);
}

}  // namespace
}  // namespace ember::obs
