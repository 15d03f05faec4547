// The unified timestep pipeline (md::StepLoop): all three drivers —
// Simulation, 1-replica BatchedSimulation, 1-rank ParallelSimulation —
// must advance the same initial system identically, the timer taxonomy
// must be uniform, and checkpoint/restart must round-trip through every
// driver's stage hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "../comm/transport_test_util.hpp"
#include "io/formats.hpp"
#include "io/writer.hpp"
#include "md/batched.hpp"
#include "md/io.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "md/step_loop.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_lj.hpp"

namespace ember::md {
namespace {

System make_argon(int reps, double temperature, std::uint64_t seed) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = reps;
  System sys = build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  return sys;
}

std::shared_ptr<PairPotential> lj() {
  return std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5);
}

// ---- cross-driver parity --------------------------------------------------

class CrossDriverParity : public ::testing::TestWithParam<int> {};

TEST_P(CrossDriverParity, DriversAgreeOnTrajectoryAndEnergy) {
  const ExecutionPolicy policy{GetParam()};
  const System init = make_argon(3, 35.0, 101);
  constexpr long kSteps = 60;

  Simulation serial(init, lj(), 0.002, 0.4, 7, policy);
  serial.run(kSteps);

  // One-replica batch: the combined system IS the system, the batched
  // list build degenerates to the serial one — bitwise agreement.
  BatchedSimulation batch(std::vector<System>{init}, lj(), 0.002, 0.4, 7,
                          policy);
  batch.run(kSteps);
  const System rep = batch.replica(0);
  ASSERT_EQ(rep.nlocal(), serial.system().nlocal());
  for (int i = 0; i < rep.nlocal(); ++i) {
    const Vec3 w = serial.system().box().wrap(serial.system().x[i]);
    EXPECT_DOUBLE_EQ(rep.x[i].x, w.x) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.x[i].y, w.y) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.x[i].z, w.z) << "atom " << i;
    EXPECT_DOUBLE_EQ(rep.v[i].x, serial.system().v[i].x);
    EXPECT_DOUBLE_EQ(rep.v[i].y, serial.system().v[i].y);
    EXPECT_DOUBLE_EQ(rep.v[i].z, serial.system().v[i].z);
  }
  EXPECT_DOUBLE_EQ(batch.energy_virial().energy, serial.potential_energy());

  // One-rank parallel: same pipeline, but ghosts + self-halo reorder the
  // force accumulation — tight tolerance rather than bitwise.
  comm::test::make(comm::TransportKind::Thread, 1)
      ->run([&](comm::Transport& c) {
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 7, policy);
    psim.run(kSteps);
    const auto g = psim.global_state();
    EXPECT_NEAR(g.potential_energy, serial.potential_energy(),
                1e-9 * std::abs(serial.potential_energy()));
    const System gathered = psim.gather_global();
    ASSERT_EQ(gathered.nlocal(), serial.system().nlocal());
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      const Vec3 d = serial.system().box().minimum_image(
          serial.system().x[static_cast<std::size_t>(id)], gathered.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-8) << "atom id " << id;
      const Vec3 dv =
          gathered.v[i] - serial.system().v[static_cast<std::size_t>(id)];
      EXPECT_NEAR(dv.norm(), 0.0, 1e-8) << "atom id " << id;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Threads, CrossDriverParity, ::testing::Values(1, 8),
                         [](const auto& param_info) {
                           return "nthreads" +
                                  std::to_string(param_info.param);
                         });

// ---- unified timer taxonomy -----------------------------------------------

TEST(StepLoopTimers, SerialBreakdownHasNoCommBucket) {
  Simulation sim(make_argon(2, 40.0, 3), lj(), 0.002, 0.4, 5);
  sim.run(40);
  const TimerSet& t = sim.timers();
  EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
  EXPECT_GT(t.total(TimerCategory::Neigh), 0.0);
  EXPECT_GT(t.total(TimerCategory::Other), 0.0);
  // Serial drivers never open the Comm bucket, so Pair+Neigh+Other
  // fractions still cover the whole run.
  EXPECT_EQ(t.total(TimerCategory::Comm), 0.0);
}

TEST(StepLoopTimers, BatchedRecordsTheSameTaxonomy) {
  std::vector<System> reps;
  reps.push_back(make_argon(2, 30.0, 1));
  reps.push_back(make_argon(2, 50.0, 2));
  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 9);
  batch.run(40);
  const TimerSet& t = batch.timers();
  EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
  EXPECT_GT(t.total(TimerCategory::Neigh), 0.0);
  EXPECT_GT(t.total(TimerCategory::Other), 0.0);
  EXPECT_EQ(t.total(TimerCategory::Comm), 0.0);
}

TEST(StepLoopTimers, Fig4LabelsMapTheCanonicalCategories) {
  EXPECT_STREQ(fig4_label(TimerCategory::Pair), "SNAP");
  EXPECT_STREQ(fig4_label(TimerCategory::Comm), "MPI Comm");
  EXPECT_STREQ(fig4_label(TimerCategory::Neigh), "Neigh");
  EXPECT_STREQ(fig4_label(TimerCategory::Other), "Other");
}

// ---- span instrumentation of the pipeline ---------------------------------

TEST(StepLoopTrace, EveryStageEmitsExactlyOneSpanPerStep) {
  Simulation sim(make_argon(3, 40.0, 77), lj(), 0.002, 0.4, 5,
                 ExecutionPolicy{2});
  sim.run(1);  // setup (and its spans) happen outside the traced window

  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  constexpr long kSteps = 6;
  sim.run(kSteps);
  session.stop();

  EXPECT_EQ(session.count("step"), kSteps);
  EXPECT_EQ(session.count("integrate.initial"), kSteps);
  EXPECT_EQ(session.count("force"), kSteps);
  EXPECT_EQ(session.count("reverse"), kSteps);
  EXPECT_EQ(session.count("integrate.final"), kSteps);
  // Each step takes exactly one of the two position paths, and the
  // exchange stage runs once per rebuild.
  EXPECT_EQ(session.count("forward") + session.count("neigh.rebuild"), kSteps);
  EXPECT_EQ(session.count("exchange"), session.count("neigh.rebuild"));

  // The step span wraps the stage spans, and carries the step number.
  int pool_tids = 0;
  std::vector<bool> seen_tid;
  for (const auto& e : session.snapshot()) {
    const std::string name = e.name;
    if (name == "step") {
      EXPECT_EQ(e.depth, 0);
      ASSERT_NE(e.arg_key, nullptr);
      EXPECT_STREQ(e.arg_key, "step");
      EXPECT_GE(e.arg_val, 1);
    } else if (name == "force" || name == "integrate.initial") {
      EXPECT_EQ(e.depth, 1);
    } else if (name == "pool.sweep") {
      if (e.tid >= static_cast<int>(seen_tid.size())) {
        seen_tid.resize(e.tid + 1, false);
      }
      if (!seen_tid[e.tid]) {
        seen_tid[e.tid] = true;
        ++pool_tids;
      }
    }
  }
  // The threaded sweeps show up on the main thread AND the pool worker.
  EXPECT_GE(pool_tids, 2);
  session.clear();
}

// ---- one clock per timed scope ---------------------------------------------

// The stage spans whose timed scopes feed each TimerCategory's bucket.
std::vector<std::string> stage_spans(TimerCategory c) {
  switch (c) {
    case TimerCategory::Pair: return {"force"};
    case TimerCategory::Neigh: return {"neigh.rebuild"};
    case TimerCategory::Comm:
      return {"exchange", "forward", "reverse", "comm.rebuild_check"};
    case TimerCategory::Other: return {"integrate.initial", "integrate.final"};
    case TimerCategory::Dump:
      return {"dump", "checkpoint", "checkpoint.drain"};
  }
  return {};
}

// Every bucket total equals the summed durations of its stage spans on
// thread `tid`, to within 1 ns per span (rounding only). Drivers that do
// not communicate still trace the comm stages but must leave Comm at 0.
void expect_buckets_are_spans(const TimerSet& timers,
                              const std::vector<obs::SpanEvent>& events,
                              int tid, bool communicates) {
  for (const TimerCategory c : kTimerCategories) {
    const std::vector<std::string> names = stage_spans(c);
    std::int64_t ns = 0;
    long spans = 0;
    for (const auto& e : events) {
      if (e.tid != tid) continue;
      if (std::find(names.begin(), names.end(), e.name) == names.end()) {
        continue;
      }
      ns += e.dur_ns;
      ++spans;
    }
    if (c == TimerCategory::Comm && !communicates) {
      EXPECT_GT(spans, 0);
      EXPECT_EQ(timers.total(c), 0.0);
      continue;
    }
    EXPECT_NEAR(timers.total(c), 1e-9 * static_cast<double>(ns),
                1e-9 * static_cast<double>(std::max(spans, 1L)))
        << timer_category_name(c) << " over " << spans << " spans";
  }
}

// Each pool worker's busy seconds equal its pool.sweep spans since
// `since_ns`; worker w runs on trace thread tids[w].
void expect_pool_seconds_are_spans(std::span<const double> busy,
                                   const std::vector<obs::SpanEvent>& events,
                                   const std::vector<int>& tids,
                                   std::int64_t since_ns) {
  ASSERT_EQ(tids.size(), busy.size());
  for (std::size_t w = 0; w < busy.size(); ++w) {
    std::int64_t ns = 0;
    long spans = 0;
    for (const auto& e : events) {
      if (e.tid != tids[w] || e.start_ns < since_ns ||
          std::string(e.name) != "pool.sweep") {
        continue;
      }
      ns += e.dur_ns;
      ++spans;
    }
    EXPECT_GT(spans, 0) << "worker " << w;
    EXPECT_NEAR(busy[w], 1e-9 * static_cast<double>(ns),
                1e-9 * static_cast<double>(std::max(spans, 1L)))
        << "worker " << w << " over " << spans << " sweeps";
  }
}

TEST(StepLoopTrace, TimersAndPoolSecondsAreTheirSpans) {
  const std::string dump = "/tmp/ember_steploop_one_clock.xyz";
  const std::string ckpt = "/tmp/ember_steploop_one_clock.bin";
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  Simulation sim(make_argon(3, 40.0, 77), lj(), 0.002, 0.4, 5,
                 ExecutionPolicy{2});
  IoPlan plan;
  plan.dump_every = 5;
  plan.dump_path = dump;
  plan.checkpoint_every = 10;
  plan.checkpoint_path = ckpt;
  sim.set_io_plan(plan);
  sim.run(20);
  session.stop();
  const std::vector<obs::SpanEvent> events = session.snapshot();
  session.clear();
  std::remove(dump.c_str());
  std::remove(ckpt.c_str());

  // The stage spans run on the calling thread; the pool's sums restart at
  // the last force stage.
  const obs::SpanEvent* last_force = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "force") last_force = &e;
  }
  ASSERT_NE(last_force, nullptr);
  EXPECT_GT(sim.timers().total(TimerCategory::Dump), 0.0);
  expect_buckets_are_spans(sim.timers(), events, last_force->tid,
                           /*communicates=*/false);
  std::vector<int> workers{last_force->tid};  // worker 0: the caller
  for (const auto& e : events) {
    if (std::string(e.name) == "pool.sweep" && e.tid != workers[0]) {
      workers.push_back(e.tid);
      break;
    }
  }
  expect_pool_seconds_are_spans(sim.context().pool().thread_seconds(), events,
                                workers, last_force->start_ns);
}

TEST(StepLoopTrace, RankTimersAndPoolSecondsAreTheirSpans) {
  constexpr int kRanks = 2;
  const System init = make_argon(4, 40.0, 78);
  std::vector<TimerSet> timers(kRanks);
  std::vector<std::vector<double>> busy(kRanks);
  auto& session = obs::TraceSession::global();
  session.clear();
  session.start();
  comm::test::make(comm::TransportKind::Thread, kRanks)
      ->run([&](comm::Transport& c) {
    // Marks this rank's thread in the trace.
    { obs::ScopedSpan mark("rank", "test", nullptr, "rank", c.rank()); }
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 19);
    psim.run(20);
    timers[c.rank()] = psim.timers();
    const auto seconds = psim.context().pool().thread_seconds();
    busy[c.rank()].assign(seconds.begin(), seconds.end());
  });
  session.stop();
  const std::vector<obs::SpanEvent> events = session.snapshot();
  session.clear();

  int ranks_seen = 0;
  for (const auto& e : events) {
    if (std::string(e.name) != "rank") continue;
    ++ranks_seen;
    SCOPED_TRACE("rank " + std::to_string(e.arg_val));
    const TimerSet& t = timers[e.arg_val];
    EXPECT_GT(t.total(TimerCategory::Comm), 0.0);
    expect_buckets_are_spans(t, events, e.tid, /*communicates=*/true);
    // A serial pool never resets: every sweep on the rank's thread counts.
    expect_pool_seconds_are_spans(busy[e.arg_val], events, {e.tid}, 0);
  }
  EXPECT_EQ(ranks_seen, kRanks);
}

// ---- checkpoint round-trips through the stage hook ------------------------

void expect_systems_close(const System& a, const System& b, double tol) {
  ASSERT_EQ(a.nlocal(), b.nlocal());
  for (int i = 0; i < a.nlocal(); ++i) {
    const Vec3 d = a.box().minimum_image(a.x[i], b.x[i]);
    EXPECT_NEAR(d.norm(), 0.0, tol) << "atom " << i;
    EXPECT_NEAR((a.v[i] - b.v[i]).norm(), 0.0, tol) << "atom " << i;
  }
}

TEST(CheckpointRoundTrip, SerialRestartMatchesUninterrupted) {
  const char* path = "/tmp/ember_steploop_serial_ckpt.bin";
  const System init = make_argon(3, 45.0, 21);

  Simulation full(init, lj(), 0.002, 0.4, 13);
  full.run(60);

  Simulation head(init, lj(), 0.002, 0.4, 13);
  head.run(30);
  head.save_checkpoint(path);

  Simulation tail(read_checkpoint(path), lj(), 0.002, 0.4, 13);
  tail.run(30);

  expect_systems_close(full.system(), tail.system(), 1e-8);
  EXPECT_NEAR(tail.potential_energy(), full.potential_energy(),
              1e-9 * std::abs(full.potential_energy()));
  std::remove(path);
}

TEST(CheckpointRoundTrip, ParallelGatherOnRootRestartMatches) {
  const char* path = "/tmp/ember_steploop_parallel_ckpt.bin";
  const System init = make_argon(3, 45.0, 33);
  constexpr int kRanks = 2;

  System full_final(init.box(), init.mass());
  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 17);
      psim.run(60);
      System g = psim.gather_global();
      if (c.rank() == 0) full_final = std::move(g);
    });
  }

  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 17);
      psim.run(30);
      psim.save_checkpoint(path);  // rank 0 writes, everyone syncs
    });
  }

  // The parallel checkpoint is a standard single-System file.
  const System restored = read_checkpoint(path);
  ASSERT_EQ(restored.nlocal(), init.nlocal());

  System tail_final(init.box(), init.mass());
  {
    comm::test::make(comm::TransportKind::Thread, kRanks)
        ->run([&](comm::Transport& c) {
      parallel::ParallelSimulation psim(c, restored, lj(), 0.002, 0.4, 17);
      psim.run(30);
      System g = psim.gather_global();
      if (c.rank() == 0) tail_final = std::move(g);
    });
  }

  expect_systems_close(full_final, tail_final, 1e-7);
  std::remove(path);
}

TEST(CheckpointRoundTrip, BatchedRestartMatchesUninterrupted) {
  const char* path = "/tmp/ember_steploop_batch_ckpt.bin";
  std::vector<System> reps;
  reps.push_back(make_argon(2, 30.0, 4));
  reps.push_back(make_argon(2, 55.0, 5));

  BatchedSimulation full(reps, lj(), 0.002, 0.4, 23);
  full.run(40);

  BatchedSimulation head(reps, lj(), 0.002, 0.4, 23);
  head.run(24);
  head.save_checkpoint(path);

  std::vector<System> restored = read_checkpoint_batch(path);
  ASSERT_EQ(restored.size(), 2u);
  BatchedSimulation tail(std::move(restored), lj(), 0.002, 0.4, 23);
  tail.run(16);

  for (int r = 0; r < 2; ++r) {
    expect_systems_close(full.replica(r), tail.replica(r), 1e-8);
  }
  std::remove(path);
}

// ---- the end of run() is a checkpoint barrier -----------------------------

// A synchronous writer that remembers the bytes of the last checkpoint it
// was handed, serialized by the same format code the executor uses.
class RecordingWriter final : public io::Writer {
 public:
  void submit(io::Request req) override {
    if (req.kind != io::Request::Kind::Trajectory) {
      std::ostringstream os(std::ios::binary);
      if (req.kind == io::Request::Kind::Checkpoint) {
        io::write_checkpoint_frame(os, req.frames.front());
      } else {
        io::write_checkpoint_frames(os, req.frames);
      }
      last_checkpoint = os.str();
    }
    inner_->submit(std::move(req));
  }
  void drain() override { inner_->drain(); }
  [[nodiscard]] bool async() const override { return false; }

  std::string last_checkpoint;

 private:
  std::unique_ptr<io::Writer> inner_ = io::make_writer(io::Mode::Sync);
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

IoPlan checkpoint_plan(const std::string& path) {
  IoPlan plan;
  plan.checkpoint_every = 10;
  plan.checkpoint_path = path;
  return plan;
}

// The checkpoint's rename runs off the stepping thread; run() must not
// return before it did, so a caller that never drains (a benchmark, a
// library user) still finds the last scheduled checkpoint in place.
void expect_last_checkpoint_in_place(const std::string& path,
                                     const RecordingWriter& writer) {
  ASSERT_FALSE(writer.last_checkpoint.empty());
  EXPECT_EQ(slurp(path), writer.last_checkpoint);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

TEST(AsyncIo, SerialRunEndsWithTheLastCheckpointInPlace) {
  const std::string path = "/tmp/ember_steploop_run_barrier_serial.bin";
  std::remove(path.c_str());
  auto writer = std::make_shared<RecordingWriter>();
  Simulation sim(make_argon(2, 40.0, 3), lj(), 0.002, 0.4, 5);
  sim.set_writer(writer);
  sim.set_io_plan(checkpoint_plan(path));
  for (int chunk = 0; chunk < 3; ++chunk) {
    sim.run(25);  // checkpoints at 10, 20 | 30, 40, 50 | 60, 70
    expect_last_checkpoint_in_place(path, *writer);
  }
  std::remove(path.c_str());
}

TEST(AsyncIo, BatchedRunEndsWithTheLastCheckpointInPlace) {
  const std::string path = "/tmp/ember_steploop_run_barrier_batch.bin";
  std::remove(path.c_str());
  auto writer = std::make_shared<RecordingWriter>();
  std::vector<System> reps{make_argon(2, 30.0, 4), make_argon(2, 50.0, 5)};
  BatchedSimulation batch(std::move(reps), lj(), 0.002, 0.4, 23);
  batch.set_writer(writer);
  batch.set_io_plan(checkpoint_plan(path));
  batch.run(30);
  expect_last_checkpoint_in_place(path, *writer);
  std::remove(path.c_str());
}

TEST(AsyncIo, ParallelRunEndsWithTheLastCheckpointInPlace) {
  const std::string path = "/tmp/ember_steploop_run_barrier_ranks.bin";
  std::remove(path.c_str());
  const System init = make_argon(3, 40.0, 9);
  comm::test::make(comm::TransportKind::Thread, 2)
      ->run([&](comm::Transport& c) {
    parallel::ParallelSimulation psim(c, init, lj(), 0.002, 0.4, 17);
    auto writer = std::make_shared<RecordingWriter>();  // rank-private
    psim.set_writer(writer);
    psim.set_io_plan(checkpoint_plan(path));
    psim.run(30);
    if (c.rank() == 0) expect_last_checkpoint_in_place(path, *writer);
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ember::md
