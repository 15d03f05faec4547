// io::Writer backends. The AsyncIo suite (selected by `ctest -R AsyncIo`,
// which the CI TSan job runs) exercises the double-buffered writer
// thread: backpressure, drain barriers, error propagation with the path
// in the message, drain-on-destruct and the checkpoint tmp+rename
// durability protocol, whose rename runs on a helper thread in both
// backends. The IoErrors suite pins the hardened synchronous
// md::write_xyz / md::write_checkpoint error handling.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "io/embt1.hpp"
#include "io/formats.hpp"
#include "io/frame.hpp"
#include "io/writer.hpp"
#include "md/io.hpp"
#include "md/system.hpp"
#include "obs/metrics.hpp"

namespace ember::io {
namespace {

md::System make_system(int natoms, double shift = 0.0) {
  md::System sys(md::Box(8.0, 8.0, 8.0), 12.011);
  for (int i = 0; i < natoms; ++i) {
    const double s = 0.37 * static_cast<double>(i) + shift;
    sys.add_atom({s, 0.5 * s, 0.25 * s}, {1e-3 * s, 0.0, -1e-3 * s});
  }
  return sys;
}

Request traj_request(const std::string& path, long step, bool truncate,
                     double shift = 0.0) {
  Request req;
  req.kind = Request::Kind::Trajectory;
  req.path = path;
  req.format = format_from_path(path);
  req.truncate = truncate;
  req.frames.push_back(
      frame_of(make_system(12, shift), step, 0, "step=" + std::to_string(step)));
  return req;
}

int count_xyz_frames(const std::string& path) {
  std::ifstream in(path);
  int frames = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line == "12") ++frames;  // atom-count line of each snapshot
  }
  return frames;
}

TEST(AsyncIo, BackpressureDeliversEveryFrame) {
  const std::string path = "/tmp/ember_asyncio_backpressure.xyz";
  std::remove(path.c_str());
  constexpr int kFrames = 40;  // >> queue capacity 2: submit must block
  {
    auto w = make_writer(Mode::Async);
    ASSERT_TRUE(w->async());
    for (int s = 0; s < kFrames; ++s) {
      w->submit(traj_request(path, s, /*truncate=*/s == 0, 1e-4 * s));
    }
    w->drain();  // barrier: everything below is on disk
    EXPECT_EQ(count_xyz_frames(path), kFrames);
  }
  std::remove(path.c_str());
}

TEST(AsyncIo, DrainIsARestartBarrier) {
  // After drain() the file must be immediately readable — this is the
  // guarantee read_checkpoint-after-checkpoint restarts rely on.
  const std::string path = "/tmp/ember_asyncio_barrier.bin";
  std::remove(path.c_str());
  auto w = make_writer(Mode::Async);
  Request req;
  req.kind = Request::Kind::Checkpoint;
  req.path = path;
  req.frames.push_back(frame_of(make_system(23), 5));
  w->submit(std::move(req));
  w->drain();
  const md::System restored = md::read_checkpoint(path);
  EXPECT_EQ(restored.nlocal(), 23);
  std::remove(path.c_str());
}

TEST(AsyncIo, CheckpointRenameLeavesNoTmpFile) {
  const std::string path = "/tmp/ember_asyncio_ckpt.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  auto w = make_writer(Mode::Async);
  Request req;
  req.kind = Request::Kind::Checkpoint;
  req.path = path;
  req.frames.push_back(frame_of(make_system(8), 1));
  w->submit(std::move(req));
  w->drain();
  EXPECT_TRUE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "checkpoint staging file must be renamed away";
  std::remove(path.c_str());
}

TEST(AsyncIo, ErrorNamesThePathAndSurfacesOnDrain) {
  const std::string path = "/tmp/ember_no_such_dir_asyncio/out.xyz";
  auto w = make_writer(Mode::Async);
  w->submit(traj_request(path, 0, /*truncate=*/true));
  try {
    w->drain();
    FAIL() << "drain did not surface the writer error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error must name the path: " << e.what();
  }
  // The error was delivered exactly once; the writer is usable again.
  EXPECT_NO_THROW(w->drain());
  const std::string ok = "/tmp/ember_asyncio_after_error.xyz";
  std::remove(ok.c_str());
  w->submit(traj_request(ok, 1, /*truncate=*/true));
  w->drain();
  EXPECT_EQ(count_xyz_frames(ok), 1);
  std::remove(ok.c_str());
}

TEST(AsyncIo, ErrorSurfacesOnLaterSubmit) {
  // When the caller keeps submitting instead of draining, the pending
  // error must come back through submit() — never a silent drop.
  const std::string bad = "/tmp/ember_no_such_dir_asyncio/out2.xyz";
  const std::string ok = "/tmp/ember_asyncio_submit_error.xyz";
  std::remove(ok.c_str());
  auto w = make_writer(Mode::Async);
  w->submit(traj_request(bad, 0, /*truncate=*/true));
  bool thrown = false;
  for (int s = 1; s < 200 && !thrown; ++s) {
    try {
      w->submit(traj_request(ok, s, /*truncate=*/false));
    } catch (const Error& e) {
      thrown = true;
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
    }
  }
  if (!thrown) {
    // The queue never filled before we stopped submitting; the error
    // must still be waiting at the barrier.
    EXPECT_THROW(w->drain(), Error);
  }
  std::remove(ok.c_str());
}

TEST(AsyncIo, SubmitRethrowsPendingErrorAndWriterStaysUsable) {
  // Deterministic version of the submit-side error contract (the test
  // above races the worker and falls back to drain): wait for the
  // worker to hit the failure, then pin that the *next* submit is the
  // rethrow site, the rethrow names the failed path, the error is
  // delivered exactly once, and the writer keeps accepting frames —
  // including a second, independent failure afterwards.
  const std::string bad = "/tmp/ember_no_such_dir_asyncio/pending.xyz";
  const std::string ok = "/tmp/ember_asyncio_reuse.xyz";
  std::remove(ok.c_str());
  auto w = make_writer(Mode::Async);
  w->submit(traj_request(bad, 0, /*truncate=*/true));
  bool thrown = false;
  for (int i = 0; i < 500 && !thrown; ++i) {
    // Give the worker time to fail the write and latch the error; the
    // probe submits are real frames and may land before the latch.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    try {
      w->submit(traj_request(ok, i + 1, /*truncate=*/false));
    } catch (const Error& e) {
      thrown = true;
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << "submit-side rethrow must name the failed path: " << e.what();
    }
  }
  EXPECT_TRUE(thrown) << "pending worker error never surfaced on submit";
  // Delivered exactly once: the barrier right after is clean.
  EXPECT_NO_THROW(w->drain());
  // Reuse after error: fresh frames flow end to end.
  w->submit(traj_request(ok, 100, /*truncate=*/true));
  w->submit(traj_request(ok, 101, /*truncate=*/false));
  w->drain();
  EXPECT_EQ(count_xyz_frames(ok), 2);
  // A second failure is reported just as loudly (no one-shot latch).
  const std::string bad2 = "/tmp/ember_no_such_dir_asyncio/pending2.xyz";
  w->submit(traj_request(bad2, 0, /*truncate=*/true));
  try {
    w->drain();
    FAIL() << "second failure was swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(bad2), std::string::npos);
  }
  w->submit(traj_request(ok, 200, /*truncate=*/true));
  w->drain();
  EXPECT_EQ(count_xyz_frames(ok), 1);
  std::remove(ok.c_str());
}

TEST(AsyncIo, DestructorDrainsOutstandingWrites) {
  const std::string path = "/tmp/ember_asyncio_destruct.embt1";
  std::remove(path.c_str());
  constexpr int kFrames = 10;
  {
    auto w = make_writer(Mode::Async);
    for (int s = 0; s < kFrames; ++s) {
      w->submit(traj_request(path, s, /*truncate=*/s == 0, 1e-4 * s));
    }
    // No drain: the destructor must finish the queue, not abandon it.
  }
  TrajectoryReader r(path);
  int frames = 0;
  while (r.next()) ++frames;
  EXPECT_EQ(frames, kFrames);
  std::remove(path.c_str());
}

TEST(AsyncIo, WriterMetricsGrow) {
  auto& frames = obs::Registry::global().counter("io.frames");
  auto& bytes = obs::Registry::global().counter("io.bytes");
  const double frames_before = frames.value();
  const double bytes_before = bytes.value();
  const std::string path = "/tmp/ember_asyncio_metrics.xyz";
  std::remove(path.c_str());
  auto w = make_writer(Mode::Async);
  w->submit(traj_request(path, 0, /*truncate=*/true));
  w->submit(traj_request(path, 1, /*truncate=*/false));
  w->drain();
  EXPECT_GE(frames.value(), frames_before + 2.0);
  EXPECT_GT(bytes.value(), bytes_before);
  std::remove(path.c_str());
}

TEST(AsyncIo, ModeFromEnvRejectsGarbage) {
  EXPECT_EQ(mode_from_env(), Mode::Sync);  // unset in the test env
  ::setenv("EMBER_IO", "async", 1);
  EXPECT_EQ(mode_from_env(), Mode::Async);
  ::setenv("EMBER_IO", "sync", 1);
  EXPECT_EQ(mode_from_env(), Mode::Sync);
  ::setenv("EMBER_IO", "turbo", 1);
  EXPECT_THROW((void)mode_from_env(), Error);
  ::unsetenv("EMBER_IO");
}

TEST(AsyncIo, SyncWriterSharesTheExecutor) {
  // Same request through both backends => byte-identical files (the
  // backends differ only in WHO runs the executor, not in what it does).
  const std::string a = "/tmp/ember_asyncio_sync.xyz";
  const std::string b = "/tmp/ember_asyncio_async.xyz";
  std::remove(a.c_str());
  std::remove(b.c_str());
  auto ws = make_writer(Mode::Sync);
  auto wa = make_writer(Mode::Async);
  EXPECT_FALSE(ws->async());
  for (int s = 0; s < 5; ++s) {
    ws->submit(traj_request(a, s, s == 0, 1e-4 * s));
    wa->submit(traj_request(b, s, s == 0, 1e-4 * s));
  }
  ws->drain();
  wa->drain();
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

Request checkpoint_request(const std::string& path, const md::System& sys) {
  Request req;
  req.kind = Request::Kind::Checkpoint;
  req.path = path;
  req.frames.push_back(frame_of(sys));
  return req;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string checkpoint_file_bytes(const md::System& sys) {
  std::ostringstream os(std::ios::binary);
  write_checkpoint_frame(os, frame_of(sys));
  return os.str();
}

bool exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

class AsyncIoModes : public ::testing::TestWithParam<Mode> {};

TEST_P(AsyncIoModes, BackToBackCheckpointsLeaveTheSecond) {
  // The second checkpoint reuses "<path>.tmp" while the first one's
  // rename may still be in flight: it must wait for it, and the barrier
  // must find the second checkpoint in place.
  const std::string path =
      std::string("/tmp/ember_asyncio_back_to_back_") + to_string(GetParam());
  std::remove(path.c_str());
  const md::System first = make_system(17);
  const md::System second = make_system(17, 0.5);
  auto w = make_writer(GetParam());
  w->submit(checkpoint_request(path, first));
  w->submit(checkpoint_request(path, second));
  w->drain();
  EXPECT_EQ(slurp(path), checkpoint_file_bytes(second))
      << "the file must reload bit for bit to the second checkpoint";
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_P(AsyncIoModes, FailedPublishNamesThePathAndWriterStaysUsable) {
  // An existing directory as the target: the .tmp write succeeds and the
  // rename over the directory fails, even for root (unlike a read-only
  // directory).
  const std::string mode = to_string(GetParam());
  const std::string dir = "/tmp/ember_asyncio_publish_dir_" + mode;
  const std::string ok = "/tmp/ember_asyncio_publish_ok_" + mode;
  ::mkdir(dir.c_str(), 0755);
  ASSERT_TRUE(exists(dir));
  const auto expect_names_dir = [&](const Error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << "publish error must name the path: " << e.what();
  };
  auto w = make_writer(GetParam());

  // Surfaces at the next barrier...
  w->submit(checkpoint_request(dir, make_system(5)));
  try {
    w->drain();
    FAIL() << "drain did not surface the failed publish";
  } catch (const Error& e) {
    expect_names_dir(e);
  }
  EXPECT_NO_THROW(w->drain()) << "the error is delivered once";

  // ...or at the next checkpoint submit(), which waits for the rename
  // before reusing the .tmp name (async: the worker latches it there and
  // the caller's next submit()/drain() rethrows it).
  w->submit(checkpoint_request(dir, make_system(5)));
  bool thrown = false;
  try {
    w->submit(checkpoint_request(ok, make_system(6)));
    w->drain();
  } catch (const Error& e) {
    thrown = true;
    expect_names_dir(e);
  }
  EXPECT_TRUE(thrown) << "the failed publish was swallowed";
  EXPECT_NO_THROW(w->drain());

  // The writer stays usable.
  const md::System sys = make_system(9, 0.25);
  w->submit(checkpoint_request(ok, sys));
  w->drain();
  EXPECT_EQ(slurp(ok), checkpoint_file_bytes(sys));
  EXPECT_FALSE(exists(ok + ".tmp"));
  std::remove(ok.c_str());
  std::remove((dir + ".tmp").c_str());
  ::rmdir(dir.c_str());
}

TEST_P(AsyncIoModes, DestructorWaitsForThePublish) {
  const std::string path =
      std::string("/tmp/ember_asyncio_publish_destruct_") +
      to_string(GetParam());
  std::remove(path.c_str());
  const md::System sys = make_system(11);
  {
    auto w = make_writer(GetParam());
    w->submit(checkpoint_request(path, sys));
    // No drain: the destructor waits for the rename.
  }
  EXPECT_EQ(slurp(path), checkpoint_file_bytes(sys));
  EXPECT_FALSE(exists(path + ".tmp"));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AsyncIo, AsyncIoModes,
                         ::testing::Values(Mode::Sync, Mode::Async),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

// --- synchronous path-level API hardening (md::write_xyz & friends) -----

TEST(IoErrors, WriteXyzUnwritablePathNamesIt) {
  const std::string path = "/tmp/ember_no_such_dir_ioerr/snap.xyz";
  try {
    md::write_xyz(make_system(4), path);
    FAIL() << "write_xyz did not throw for a missing directory";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(IoErrors, WriteCheckpointUnwritablePathNamesIt) {
  const std::string path = "/tmp/ember_no_such_dir_ioerr/state.bin";
  try {
    md::write_checkpoint(make_system(4), path);
    FAIL() << "write_checkpoint did not throw for a missing directory";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(IoErrors, ReadOnlyDirectoryRejected) {
  if (::geteuid() == 0) {
    GTEST_SKIP() << "root bypasses directory permissions";
  }
  const std::string dir = "/tmp/ember_readonly_dir";
  ::mkdir(dir.c_str(), 0755);
  ::chmod(dir.c_str(), 0555);
  const std::string path = dir + "/snap.xyz";
  EXPECT_THROW(md::write_xyz(make_system(4), path), Error);
  EXPECT_THROW(md::write_checkpoint(make_system(4), dir + "/state.bin"),
               Error);
  ::chmod(dir.c_str(), 0755);
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace ember::io
