// Integration tests of the MD engine: energy conservation, thermostats,
// barostat, and checkpoint round-trips, driven by the LJ potential.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "md/computes.hpp"
#include "md/io.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "ref/pair_lj.hpp"
#include "snap/snap_potential.hpp"

namespace ember::md {
namespace {

// Argon-like LJ in metal units (eps ~ 0.0104 eV, sigma 3.4 A) on an fcc
// lattice: a classic, very stable NVE benchmark.
Simulation make_lj_sim(double temperature, double dt, std::uint64_t seed,
                       ExecutionPolicy policy = {}) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = 4;
  System sys = build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  auto pot = std::make_shared<ref::PairLJ>(0.0104, 3.4, 8.0);
  return Simulation(std::move(sys), pot, dt, 0.4, seed, policy);
}

TEST(Dynamics, NveConservesEnergy) {
  Simulation sim = make_lj_sim(40.0, 0.002, 11);
  sim.setup();
  const double e0 = sim.total_energy();
  sim.run(400);
  const double drift = std::abs(sim.total_energy() - e0);
  // eV per atom drift over 0.8 ps must be tiny.
  EXPECT_LT(drift / sim.system().nlocal(), 2e-6) << "e0=" << e0;
}

TEST(Dynamics, ThreadedNveMatchesSerialTrajectory) {
  // LJ is a gather kernel: each thread writes only its own atoms' forces
  // in the serial accumulation order, so the threaded trajectory tracks
  // the serial one to within reduction rounding on the energy readout.
  Simulation serial = make_lj_sim(40.0, 0.002, 29);
  Simulation threaded = make_lj_sim(40.0, 0.002, 29, ExecutionPolicy{4});
  serial.run(200);
  threaded.run(200);
  const System& a = serial.system();
  const System& b = threaded.system();
  ASSERT_EQ(a.nlocal(), b.nlocal());
  for (int i = 0; i < a.nlocal(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(a.x[i][d], b.x[i][d], 1e-12) << "atom " << i;
      EXPECT_NEAR(a.v[i][d], b.v[i][d], 1e-12) << "atom " << i;
    }
  }
  EXPECT_NEAR(serial.total_energy(), threaded.total_energy(),
              1e-10 * std::abs(serial.total_energy()));
}

TEST(Dynamics, ThreadedNveDriftMatchesSerial) {
  auto drift_at = [](ExecutionPolicy policy) {
    Simulation sim = make_lj_sim(40.0, 0.002, 11, policy);
    sim.setup();
    const double e0 = sim.total_energy();
    sim.run(400);
    return std::abs(sim.total_energy() - e0) / sim.system().nlocal();
  };
  const double serial = drift_at({});
  for (const int nth : {2, 8}) {
    const double threaded = drift_at(ExecutionPolicy{nth});
    EXPECT_LT(threaded, 2e-6) << nth << " threads";
    EXPECT_NEAR(threaded, serial, 1e-9) << nth << " threads";
  }
}

TEST(Dynamics, SnapNveDriftIsKernelIndependent) {
  // The production adjoint kernel must integrate the same NVE trajectory
  // as the independent Baseline (Z/dB) path: per-step force parity is
  // <= 1e-12, so over a short run positions track tightly and the energy
  // drift of the two paths is indistinguishable.
  auto make_snap_sim = [](snap::SnapPotential::Path path) {
    snap::SnapParams p;
    p.twojmax = 6;
    p.rcut = 2.6;
    p.bzero_flag = true;
    snap::SnapModel m;
    m.params = p;
    m.beta.resize(snap::SnapIndex(p.twojmax).num_b());
    Rng crng(41);
    for (auto& b : m.beta) b = 0.02 * crng.uniform(-1.0, 1.0);
    m.beta0 = -1.0;

    LatticeSpec spec;
    spec.kind = LatticeKind::Diamond;
    spec.a = 3.567;
    spec.nx = spec.ny = spec.nz = 2;
    System sys = build_lattice(spec, 12.011);
    Rng rng(43);
    sys.thermalize(120.0, rng);
    auto pot = std::make_shared<snap::SnapPotential>(m, path);
    return Simulation(std::move(sys), pot, 0.0005, 0.3, 43);
  };

  auto drift_and_run = [&](snap::SnapPotential::Path path,
                           std::vector<Vec3>& x) {
    Simulation sim = make_snap_sim(path);
    sim.setup();
    const double e0 = sim.total_energy();
    sim.run(100);
    const System& sys = sim.system();
    x.assign(sys.x.begin(), sys.x.begin() + sys.nlocal());
    return std::abs(sim.total_energy() - e0) / sys.nlocal();
  };
  std::vector<Vec3> x_base;
  std::vector<Vec3> x_adj;
  const double drift_base =
      drift_and_run(snap::SnapPotential::Path::Baseline, x_base);
  const double drift_adj =
      drift_and_run(snap::SnapPotential::Path::Adjoint, x_adj);

  EXPECT_LT(drift_base, 5e-5);
  EXPECT_LT(drift_adj, 5e-5);
  EXPECT_NEAR(drift_adj, drift_base, 1e-9);
  ASSERT_EQ(x_base.size(), x_adj.size());
  for (std::size_t i = 0; i < x_base.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(x_base[i][d], x_adj[i][d], 1e-8) << "atom " << i;
    }
  }
}

TEST(Dynamics, NveTimeStepConvergence) {
  // Halving dt must reduce energy drift (2nd-order integrator).
  auto drift_for = [](double dt) {
    Simulation sim = make_lj_sim(40.0, dt, 13);
    sim.setup();
    const double e0 = sim.total_energy();
    sim.run(static_cast<long>(0.4 / dt));
    return std::abs(sim.total_energy() - e0);
  };
  const double d_coarse = drift_for(0.008);
  const double d_fine = drift_for(0.002);
  EXPECT_LT(d_fine, d_coarse);
}

TEST(Dynamics, LangevinReachesTargetTemperature) {
  Simulation sim = make_lj_sim(10.0, 0.002, 17);
  sim.integrator().set_langevin(LangevinParams{60.0, 0.1});
  sim.run(600);
  // Average over a window to beat fluctuations.
  double tsum = 0.0;
  int samples = 0;
  sim.run(600, [&](Simulation& s) {
    tsum += s.system().temperature();
    ++samples;
  });
  const double tavg = tsum / samples;
  EXPECT_NEAR(tavg, 60.0, 8.0);
}

TEST(Dynamics, BerendsenThermostatRelaxes) {
  Simulation sim = make_lj_sim(100.0, 0.002, 19);
  sim.integrator().set_berendsen_t(BerendsenTParams{30.0, 0.05});
  sim.run(500);
  EXPECT_NEAR(sim.system().temperature(), 30.0, 6.0);
}

TEST(Dynamics, MomentumIsConservedInNve) {
  Simulation sim = make_lj_sim(40.0, 0.002, 23);
  sim.run(200);
  Vec3 p;
  const System& sys = sim.system();
  for (int i = 0; i < sys.nlocal(); ++i) p += sys.v[i];
  EXPECT_NEAR(p.norm(), 0.0, 1e-9);
}

TEST(Dynamics, BarostatMovesVolumeTowardTarget) {
  Simulation sim = make_lj_sim(30.0, 0.002, 29);
  sim.setup();
  const double p0 = sim.pressure();
  const double v0 = sim.system().box().volume();
  // Target far above current pressure: box must shrink.
  sim.integrator().set_berendsen_p(
      BerendsenPParams{p0 + 5000.0, 0.5, 1e-6});
  sim.integrator().set_langevin(LangevinParams{30.0, 0.1});
  sim.run(400);
  EXPECT_LT(sim.system().box().volume(), v0);
}

TEST(Dynamics, TimersCoverTheRun) {
  Simulation sim = make_lj_sim(40.0, 0.002, 31);
  sim.run(50);
  const auto& t = sim.timers();
  EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
  EXPECT_GT(t.total(TimerCategory::Other), 0.0);
  EXPECT_GT(t.grand_total(), 0.0);
  EXPECT_NEAR(t.fraction(TimerCategory::Pair) + t.fraction(TimerCategory::Neigh) +
                  t.fraction(TimerCategory::Other),
              1.0, 1e-12);
}

TEST(Io, CheckpointRoundTrip) {
  Simulation sim = make_lj_sim(40.0, 0.002, 37);
  sim.run(20);
  const std::string path = "/tmp/ember_test_ckpt.bin";
  write_checkpoint(sim.system(), path);
  System restored = read_checkpoint(path);
  std::remove(path.c_str());

  ASSERT_EQ(restored.nlocal(), sim.system().nlocal());
  EXPECT_DOUBLE_EQ(restored.box().length(0), sim.system().box().length(0));
  EXPECT_DOUBLE_EQ(restored.mass(), sim.system().mass());
  for (int i = 0; i < restored.nlocal(); ++i) {
    const Vec3 w = sim.system().box().wrap(sim.system().x[i]);
    EXPECT_DOUBLE_EQ(restored.x[i].x, w.x);
    EXPECT_DOUBLE_EQ(restored.v[i].z, sim.system().v[i].z);
    EXPECT_EQ(restored.id[i], sim.system().id[i]);
  }
}

TEST(Io, CheckpointContinuationIsExact) {
  // Running 10 steps, checkpointing, and continuing must equal a straight
  // 20-step run (deterministic NVE path).
  Simulation a = make_lj_sim(40.0, 0.002, 41);
  a.run(20);

  Simulation b = make_lj_sim(40.0, 0.002, 41);
  b.run(10);
  const std::string path = "/tmp/ember_test_ckpt2.bin";
  write_checkpoint(b.system(), path);
  System restored = read_checkpoint(path);
  std::remove(path.c_str());
  Simulation c(std::move(restored), std::make_shared<ref::PairLJ>(0.0104, 3.4, 8.0),
               0.002, 0.4, 999);
  c.run(10);

  for (int i = 0; i < a.system().nlocal(); ++i) {
    // Positions may differ by an exact box period (wrapping happens at
    // reneighboring, whose schedule differs across the restart).
    const Vec3 d = a.system().box().minimum_image(a.system().x[i],
                                                  c.system().x[i]);
    EXPECT_NEAR(d.norm(), 0.0, 1e-10);
    EXPECT_NEAR(a.system().v[i].y, c.system().v[i].y, 1e-10);
  }
}

TEST(Computes, RdfFirstPeakOnFcc) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = 3;
  System sys = build_lattice(spec, 39.948);
  Rdf rdf;
  rdf.rmax = 6.0;
  rdf.compute(sys);
  // fcc nearest neighbor at a/sqrt(2) = 3.72 A.
  EXPECT_NEAR(rdf.first_peak(), 5.26 / std::sqrt(2.0), 0.1);
}

TEST(Computes, MsdGrowsInLiquidAndNotInSolid) {
  Simulation hot = make_lj_sim(200.0, 0.002, 43);
  hot.integrator().set_langevin(LangevinParams{200.0, 0.1});
  Msd msd;
  msd.set_reference(hot.system());
  hot.run(300);
  const double msd_hot = msd.compute(hot.system());

  Simulation cold = make_lj_sim(5.0, 0.002, 47);
  Msd msd2;
  msd2.set_reference(cold.system());
  cold.run(300);
  const double msd_cold = msd2.compute(cold.system());
  EXPECT_GT(msd_hot, 5.0 * msd_cold);
}

TEST(Computes, CoordinationOnDiamond) {
  LatticeSpec spec;
  spec.kind = LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 2;
  System sys = build_lattice(spec, 12.011);
  NeighborList nl(2.2, 0.2);
  nl.build(sys);
  const auto coord = coordination_numbers(sys, nl, 1.8);
  for (const int c : coord) EXPECT_EQ(c, 4);
}

}  // namespace
}  // namespace ember::md
