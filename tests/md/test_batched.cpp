// Batched multi-replica MD: lockstep trajectories must match independent
// serial runs exactly, with zero cross-talk between replicas.

#include <gtest/gtest.h>

#include <memory>

#include "md/batched.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "obs/metrics.hpp"
#include "ref/pair_lj.hpp"
#include "ref/pair_tersoff.hpp"

namespace ember::md {
namespace {

System argon_replica(int reps, double a, double temperature,
                     std::uint64_t seed) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Fcc;
  spec.a = a;
  spec.nx = spec.ny = spec.nz = reps;
  System sys = build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  return sys;
}

std::shared_ptr<PairPotential> lj() {
  return std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5);
}

TEST(Batched, MatchesIndependentRunsExactly) {
  // Three replicas with different boxes and temperatures, advanced 80 NVE
  // steps: the batched trajectory must equal three separate runs.
  std::vector<System> reps;
  reps.push_back(argon_replica(2, 5.26, 30.0, 1));
  reps.push_back(argon_replica(2, 5.40, 60.0, 2));
  reps.push_back(argon_replica(3, 5.26, 45.0, 3));

  std::vector<System> individual;
  for (const auto& rep : reps) {
    Simulation sim(rep, lj(), 0.002, 0.4, 99);
    sim.run(80);
    individual.push_back(sim.system());
  }

  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 99);
  batch.run(80);

  for (int r = 0; r < 3; ++r) {
    const System got = batch.replica(r);
    ASSERT_EQ(got.nlocal(), individual[r].nlocal());
    for (int i = 0; i < got.nlocal(); ++i) {
      const Vec3 d =
          individual[r].box().minimum_image(individual[r].x[i], got.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-10) << "replica " << r << " atom " << i;
      EXPECT_NEAR(got.v[i].x, individual[r].v[i].x, 1e-12);
      EXPECT_NEAR(got.v[i].z, individual[r].v[i].z, 1e-12);
    }
  }
}

TEST(Batched, NoCrossTalkBetweenOverlappingReplicas) {
  // Two replicas occupy the SAME coordinates; forces in replica 0 must be
  // unchanged by replica 1's presence (different-system atoms are never
  // neighbors).
  System a = argon_replica(2, 5.26, 20.0, 7);
  System b = a;
  for (int i = 0; i < b.nlocal(); ++i) b.v[i] *= -1.0;  // distinguishable

  Simulation solo(a, lj(), 0.002, 0.4, 5);
  solo.run(40);

  BatchedSimulation batch({a, b}, lj(), 0.002, 0.4, 5);
  batch.run(40);
  const System got = batch.replica(0);
  for (int i = 0; i < got.nlocal(); ++i) {
    const Vec3 d = solo.system().box().minimum_image(solo.system().x[i],
                                                     got.x[i]);
    EXPECT_NEAR(d.norm(), 0.0, 1e-10);
  }
}

TEST(Batched, EnergyIsSumOfReplicaEnergies) {
  std::vector<System> reps;
  reps.push_back(argon_replica(2, 5.26, 0.0, 1));
  reps.push_back(argon_replica(2, 5.45, 0.0, 2));

  double sum = 0.0;
  for (const auto& rep : reps) {
    Simulation sim(rep, lj(), 0.002, 0.4, 1);
    sim.setup();
    sum += sim.potential_energy();
  }
  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 1);
  batch.setup();
  EXPECT_NEAR(batch.energy_virial().energy, sum, 1e-9 * std::abs(sum));
}

TEST(Batched, PerReplicaTemperatures) {
  std::vector<System> reps;
  reps.push_back(argon_replica(2, 5.26, 20.0, 11));
  reps.push_back(argon_replica(2, 5.26, 80.0, 13));
  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 11);
  // Thermalize targets are per-replica: the hotter replica must read
  // hotter before any dynamics.
  EXPECT_GT(batch.temperature(1), 2.5 * batch.temperature(0));
}

TEST(Batched, ManyBodyPotentialWorks) {
  // Tersoff across a batch (the many-body path touches zeta sums that
  // must also stay replica-local).
  LatticeSpec spec;
  spec.kind = LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 2;
  System a = build_lattice(spec, 12.011);
  Rng rng(3);
  perturb(a, 0.05, rng);
  System b = build_lattice(spec, 12.011);
  perturb(b, 0.08, rng);

  auto tersoff = std::make_shared<ref::PairTersoff>();
  Simulation solo(a, tersoff, 2e-4, 0.4, 5);
  solo.run(20);

  BatchedSimulation batch({a, b}, std::make_shared<ref::PairTersoff>(),
                          2e-4, 0.4, 5);
  batch.run(20);
  const System got = batch.replica(0);
  for (int i = 0; i < got.nlocal(); ++i) {
    const Vec3 d = solo.system().box().minimum_image(solo.system().x[i],
                                                     got.x[i]);
    EXPECT_NEAR(d.norm(), 0.0, 1e-9);
  }
}

TEST(Batched, StepCallbackAndTimersMatchTheOtherDrivers) {
  std::vector<System> reps;
  reps.push_back(argon_replica(2, 5.26, 30.0, 1));
  reps.push_back(argon_replica(2, 5.26, 60.0, 2));
  BatchedSimulation batch(reps, lj(), 0.002, 0.4, 99);

  long calls = 0;
  long last_step = -1;
  batch.run(30, [&](BatchedSimulation& b) {
    ++calls;
    last_step = b.step();
    EXPECT_EQ(b.num_replicas(), 2);
  });
  EXPECT_EQ(calls, 30);
  EXPECT_EQ(last_step, 30);
  EXPECT_EQ(batch.step(), 30);

  EXPECT_GT(batch.timers().total(TimerCategory::Pair), 0.0);
  EXPECT_GT(batch.timers().total(TimerCategory::Neigh), 0.0);
  EXPECT_GT(batch.timers().total(TimerCategory::Other), 0.0);
  batch.reset_timers();
  EXPECT_EQ(batch.timers().grand_total(), 0.0);
}

TEST(Batched, NeighborBuildsFeedTheMetrics) {
  // A replicas run reports its neighbor builds like the other drivers:
  // one neigh.builds per loop rebuild, and neigh.pairs is the last list.
  auto& reg = obs::Registry::global();
  obs::Counter& builds = reg.counter("neigh.builds");
  obs::Counter& rebuilds = reg.counter("md.neigh.rebuilds");
  const double builds0 = builds.value();
  const double rebuilds0 = rebuilds.value();

  std::vector<System> reps;
  reps.push_back(argon_replica(2, 5.26, 300.0, 4));
  reps.push_back(argon_replica(2, 5.40, 300.0, 5));
  BatchedSimulation batch(reps, lj(), 0.004, 0.2, 99);
  batch.run(60);

  const double nrebuilds = rebuilds.value() - rebuilds0;
  EXPECT_GT(nrebuilds, 1.0);  // setup plus at least one displacement rebuild
  EXPECT_EQ(builds.value() - builds0, nrebuilds);
  EXPECT_EQ(reg.gauge("neigh.pairs").value(),
            static_cast<double>(batch.neighbor_list().total_pairs()));
}

TEST(Batched, RejectsMixedMasses) {
  System a(Box(10, 10, 10), 12.011);
  a.add_atom({1, 1, 1});
  System b(Box(10, 10, 10), 55.845);
  b.add_atom({1, 1, 1});
  EXPECT_THROW(BatchedSimulation({a, b}, lj(), 0.002), Error);
}

}  // namespace
}  // namespace ember::md
