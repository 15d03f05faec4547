// Thread pool and ComputeContext guarantees: static chunk scheduling,
// deterministic reductions, and the headline parity contract — threaded
// force kernels (SNAP, EAM, Tersoff) match the serial engine to <= 1e-12
// per force component at 1/2/4/8 threads, and repeated threaded runs at a
// fixed thread count are bitwise identical.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/potential.hpp"
#include "parallel/thread_pool.hpp"
#include "ref/pair_eam.hpp"
#include "ref/pair_lj.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/snap_potential.hpp"

namespace ember {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  parallel::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, 7, [&](int, int b, int e) {
    for (int i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPool, ChunkMapIsStaticRoundRobin) {
  // chunk c -> worker c % nthreads, independent of timing: the observed
  // tid of every index must match the analytic map on every run.
  constexpr int kN = 101, kGrain = 9, kThreads = 3;
  parallel::ThreadPool pool(kThreads);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<int> tid_of(kN, -1);
    pool.parallel_for(0, kN, kGrain, [&](int tid, int b, int e) {
      for (int i = b; i < e; ++i) tid_of[i] = tid;  // disjoint writes
    });
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(tid_of[i], (i / kGrain) % kThreads) << "index " << i;
    }
  }
}

TEST(ThreadPool, SerialPoolRunsInlineAsOneChunk) {
  parallel::ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(3, 50, 5, [&](int tid, int b, int e) {
    ++calls;
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(b, 3);
    EXPECT_EQ(e, 50);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, BlocksPartitionIsContiguousPerWorker) {
  parallel::ThreadPool pool(4);
  std::vector<int> tid_of(10, -1);
  std::atomic<int> calls{0};
  pool.parallel_blocks(0, 10, [&](int tid, int b, int e) {
    calls.fetch_add(1, std::memory_order_relaxed);
    for (int i = b; i < e; ++i) tid_of[i] = tid;
  });
  // grain = ceil(10/4) = 3 -> chunks [0,3) [3,6) [6,9) [9,10), one each.
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 4);
  const int expect[] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tid_of[i], expect[i]);
}

TEST(ThreadPool, ThreadSecondsSumEverySweepSinceTheReset) {
  // A stage = a heavy balanced sweep, then a tiny unbalanced one (SNAP's
  // force sweep, then its merge). The stage's imbalance must follow the
  // heavy sweep, not the last one. Each worker spins on the wall clock,
  // so its busy time holds even when the host deschedules it.
  constexpr int kThreads = 4;
  parallel::ThreadPool pool(kThreads);
  const auto spin = [](double seconds) {
    const WallTimer t;
    while (t.seconds() < seconds) {
    }
  };
  pool.parallel_blocks(0, kThreads, [&](int, int, int) { spin(0.2); });
  pool.reset_thread_seconds();  // the stage starts here
  pool.parallel_blocks(0, kThreads, [&](int, int, int) { spin(0.02); });
  pool.parallel_blocks(0, kThreads, [&](int tid, int, int) {
    if (tid == 0) spin(0.002);
  });
  const auto busy = pool.thread_seconds();
  ASSERT_EQ(busy.size(), static_cast<std::size_t>(kThreads));
  for (const double s : busy) {
    EXPECT_GE(s, 0.02);
    EXPECT_LT(s, 0.2) << "the sweep before the reset was counted";
  }
  TimerSet timers;
  timers.add_thread_times(TimerCategory::Pair, busy);
  // Heavy sweep alone: 1.0. The last sweep alone: ~kThreads.
  EXPECT_LT(timers.imbalance(TimerCategory::Pair), 2.0);

  pool.reset_thread_seconds();
  for (const double s : pool.thread_seconds()) EXPECT_EQ(s, 0.0);
}

TEST(ThreadPool, ReduceTreeIsFixedOrder) {
  // The pairwise tree for 5 slots: ((0+1)+(2+3))+4, not left-to-right.
  std::vector<double> slots = {1e16, 1.0, -1e16, 1.0, 3.0};
  const double tree =
      parallel::ThreadPool::reduce_tree(std::span<double>(slots),
                                        [](double a, double b) { return a + b; });
  double expect[] = {1e16, 1.0, -1e16, 1.0, 3.0};
  expect[0] += expect[1];
  expect[2] += expect[3];
  expect[0] += expect[2];
  expect[0] += expect[4];
  EXPECT_EQ(tree, expect[0]);
}

// --- force-kernel parity -------------------------------------------------

md::System perturbed_diamond(int reps, double sigma, std::uint64_t seed) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = reps;
  md::System sys = md::build_lattice(spec, 12.011);
  Rng rng(seed);
  md::perturb(sys, sigma, rng);
  return sys;
}

snap::SnapModel tiny_snap_model(int twojmax, std::uint64_t seed) {
  snap::SnapParams p;
  p.twojmax = twojmax;
  p.rcut = 2.6;
  p.bzero_flag = true;
  snap::SnapModel m;
  m.params = p;
  snap::Bispectrum bi(p);
  Rng rng(seed);
  m.beta.resize(bi.num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
  return m;
}

struct ForceRun {
  double energy = 0.0;
  double virial = 0.0;
  std::vector<Vec3> f;
};

// One full threaded force evaluation: threaded neighbor build, threaded
// kernel, merged forces.
ForceRun run_forces(md::PairPotential& pot, const md::System& start,
                    int nthreads) {
  md::System sys = start;
  const md::ComputeContext ctx{ExecutionPolicy{nthreads}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  sys.zero_forces();
  const auto ev = pot.compute(ctx, sys, nl);
  return {ev.energy, ev.virial,
          std::vector<Vec3>(sys.f.begin(), sys.f.end())};
}

void expect_parity(md::PairPotential& pot, const md::System& sys) {
  const ForceRun serial = run_forces(pot, sys, 1);
  for (const int nth : {2, 4, 8}) {
    const ForceRun threaded = run_forces(pot, sys, nth);
    const double etol = 1e-12 * std::max(1.0, std::abs(serial.energy));
    EXPECT_NEAR(threaded.energy, serial.energy, etol) << nth << " threads";
    EXPECT_NEAR(threaded.virial, serial.virial,
                1e-12 * std::max(1.0, std::abs(serial.virial)))
        << nth << " threads";
    ASSERT_EQ(threaded.f.size(), serial.f.size());
    for (std::size_t i = 0; i < serial.f.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        EXPECT_NEAR(threaded.f[i][d], serial.f[i][d], 1e-12)
            << nth << " threads, atom " << i << " dim " << d;
      }
    }
  }
}

TEST(ThreadedForces, TersoffMatchesSerial) {
  ref::PairTersoff pot;
  expect_parity(pot, perturbed_diamond(2, 0.1, 31));
}

TEST(ThreadedForces, EamMatchesSerial) {
  ref::PairEam pot;
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Bcc;
  spec.a = 2.8665;
  spec.nx = spec.ny = spec.nz = 3;
  md::System sys = md::build_lattice(spec, 55.845);
  Rng rng(37);
  md::perturb(sys, 0.1, rng);
  expect_parity(pot, sys);
}

TEST(ThreadedForces, LjMatchesSerial) {
  ref::PairLJ pot(0.0104, 3.4, 8.0);
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = 3;
  md::System sys = md::build_lattice(spec, 39.948);
  Rng rng(41);
  md::perturb(sys, 0.15, rng);
  expect_parity(pot, sys);
}

TEST(ThreadedForces, SnapMatchesSerial) {
  snap::SnapPotential pot(tiny_snap_model(6, 43));
  expect_parity(pot, perturbed_diamond(2, 0.1, 47));
}

TEST(ThreadedForces, RepeatedRunsAreBitwiseIdentical) {
  // Determinism contract: at a fixed thread count, the merge order of the
  // per-thread partial forces is static, so two runs agree exactly.
  snap::SnapPotential pot(tiny_snap_model(6, 53));
  const md::System sys = perturbed_diamond(2, 0.12, 59);
  const ForceRun a = run_forces(pot, sys, 4);
  const ForceRun b = run_forces(pot, sys, 4);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.virial, b.virial);
  ASSERT_EQ(a.f.size(), b.f.size());
  for (std::size_t i = 0; i < a.f.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(a.f[i][d], b.f[i][d]) << "atom " << i << " dim " << d;
    }
  }
}

TEST(ThreadedNeighbors, ListMatchesSerialEntryForEntry) {
  const md::System sys = perturbed_diamond(3, 0.1, 61);
  md::NeighborList serial(3.2, 0.4);
  serial.build(sys);
  const md::ComputeContext ctx{ExecutionPolicy{4}};
  md::NeighborList threaded(3.2, 0.4);
  threaded.build(sys, /*use_ghosts=*/false, &ctx);

  ASSERT_EQ(threaded.num_atoms(), serial.num_atoms());
  ASSERT_EQ(threaded.total_pairs(), serial.total_pairs());
  for (int i = 0; i < serial.num_atoms(); ++i) {
    const auto a = serial.neighbors(i);
    const auto b = threaded.neighbors(i);
    ASSERT_EQ(a.size(), b.size()) << "atom " << i;
    for (std::size_t m = 0; m < a.size() && m < b.size(); ++m) {
      EXPECT_EQ(a[m].j, b[m].j);
      EXPECT_EQ(a[m].shift.x, b[m].shift.x);
      EXPECT_EQ(a[m].shift.y, b[m].shift.y);
      EXPECT_EQ(a[m].shift.z, b[m].shift.z);
    }
  }
}

TEST(ComputeContext, AtomRangeRestrictsTheSweep) {
  // A kernel run over [0, n/2) plus one over [n/2, n) must reproduce the
  // full-range forces (the pipelining use case for sub-ranges).
  ref::PairLJ pot(0.0104, 3.4, 8.0);
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = 2;
  md::System full = md::build_lattice(spec, 39.948);
  Rng rng(67);
  md::perturb(full, 0.1, rng);

  const ForceRun whole = run_forces(pot, full, 2);

  md::System sys = full;
  md::ComputeContext ctx{ExecutionPolicy{2}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, false, &ctx);
  sys.zero_forces();
  const int half = sys.nlocal() / 2;
  ctx.set_atom_range(0, half);
  const auto lo = pot.compute(ctx, sys, nl);
  ctx.set_atom_range(half, sys.nlocal());
  const auto hi = pot.compute(ctx, sys, nl);
  ctx.clear_atom_range();

  EXPECT_NEAR(lo.energy + hi.energy, whole.energy,
              1e-12 * std::max(1.0, std::abs(whole.energy)));
  for (int i = 0; i < sys.nlocal(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(sys.f[i][d], whole.f[i][d], 1e-12);
    }
  }
}

}  // namespace
}  // namespace ember
