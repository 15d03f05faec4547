// Domain-decomposition validation: the parallel driver must reproduce the
// serial engine — same energies and forces at setup, equivalent
// trajectories over many steps, conservation across migrations. The
// parity suite runs on every (transport backend, rank count) pair: the
// same program must hold whether ranks are threads of this process or
// forked socket-connected processes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "comm/transport.hpp"
#include "md/io.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "parallel/parallel_sim.hpp"
#include "ref/pair_lj.hpp"
#include "ref/pair_tersoff.hpp"
#include "snap/snap_potential.hpp"
#include "../comm/transport_test_util.hpp"

namespace ember::parallel {
namespace {

md::System make_argon(int reps, double temperature, std::uint64_t seed) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = reps;
  md::System sys = md::build_lattice(spec, 39.948);
  Rng rng(seed);
  sys.thermalize(temperature, rng);
  return sys;
}

std::shared_ptr<md::PairPotential> make_lj() {
  return std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5);
}

TEST(RankGrid, ChoosesBalancedFactorization) {
  const auto g8 = RankGrid::choose(8);
  EXPECT_EQ(g8.nx * g8.ny * g8.nz, 8);
  EXPECT_EQ(g8.nx, 2);
  EXPECT_EQ(g8.ny, 2);
  EXPECT_EQ(g8.nz, 2);
  const auto g12 = RankGrid::choose(12);
  EXPECT_EQ(g12.nx * g12.ny * g12.nz, 12);
  // 3x2x2 in some order beats 12x1x1.
  EXPECT_LE(std::max({g12.nx, g12.ny, g12.nz}), 3);
  // The paper's full-Summit grid: 27,900 ranks factor into 30x30x31.
  const auto summit = RankGrid::choose(27900);
  std::array<int, 3> dims{summit.nx, summit.ny, summit.nz};
  std::sort(dims.begin(), dims.end());
  EXPECT_EQ(dims[0], 30);
  EXPECT_EQ(dims[1], 30);
  EXPECT_EQ(dims[2], 31);
}

TEST(Domain, OwnershipPartitionsTheBox) {
  md::Box box(12, 14, 16);
  const RankGrid grid{2, 2, 1};
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 p{rng.uniform(0, 12), rng.uniform(0, 14), rng.uniform(0, 16)};
    int owners = 0;
    for (int r = 0; r < grid.size(); ++r) {
      Domain dom(box, grid, r);
      if (dom.owns(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "point " << p.x << ',' << p.y << ',' << p.z;
  }
}

class ParallelVsSerial
    : public ::testing::TestWithParam<std::tuple<comm::TransportKind, int>> {
 protected:
  [[nodiscard]] std::unique_ptr<comm::Context> context() const {
    return comm::test::make(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }
};

TEST_P(ParallelVsSerial, SetupEnergyMatchesSerial) {
  md::System global = make_argon(3, 30.0, 7);

  md::Simulation serial(global, make_lj(), 0.002, 0.5, 7);
  serial.setup();
  const double e_serial = serial.potential_energy();

  context()->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, make_lj(), 0.002, 0.5, 7);
    psim.setup();
    const auto g = psim.global_state();
    EXPECT_EQ(g.natoms, global.nlocal());
    EXPECT_NEAR(g.potential_energy, e_serial,
                1e-9 * std::abs(e_serial));
  });
}

TEST_P(ParallelVsSerial, TrajectoriesMatchOverManySteps) {
  md::System global = make_argon(3, 30.0, 13);

  md::Simulation serial(global, make_lj(), 0.002, 0.5, 13);
  serial.run(120);

  context()->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, make_lj(), 0.002, 0.5, 13);
    psim.run(120);
    md::System gathered = psim.gather_global();
    ASSERT_EQ(gathered.nlocal(), serial.system().nlocal());

    // Match atoms by id (serial ids are 0..N-1 in order).
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      const Vec3 d = serial.system().box().minimum_image(
          serial.system().x[static_cast<std::size_t>(id)], gathered.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-7) << "atom " << id;
      EXPECT_NEAR(gathered.v[i].x,
                  serial.system().v[static_cast<std::size_t>(id)].x, 1e-7);
    }
  });
}

TEST_P(ParallelVsSerial, MigrationConservesAtoms) {
  // Hot enough to force atoms across sub-domain boundaries.
  md::System global = make_argon(3, 300.0, 17);

  context()->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, make_lj(), 0.004, 0.3, 17);
    psim.run(200);
    const auto g = psim.global_state();
    EXPECT_EQ(g.natoms, global.nlocal());

    md::System gathered = psim.gather_global();
    // Ids must remain a permutation of the originals.
    std::map<long, int> seen;
    for (int i = 0; i < gathered.nlocal(); ++i) ++seen[gathered.id[i]];
    EXPECT_EQ(static_cast<int>(seen.size()), global.nlocal());
    for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;

    // Every local atom must actually live in its owner's domain.
    EXPECT_TRUE(psim.domain().owns(
        psim.local().box().wrap(psim.local().x[0])));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, ParallelVsSerial,
    ::testing::Combine(::testing::ValuesIn(comm::test::kBothKinds),
                       ::testing::Values(1, 2, 4, 8)),
    comm::test::kind_size_name);

// A rank that owns no atoms and receives no ghosts has nothing to bin:
// its neighbor build must emit no rows, and the run must go on.
class EmptyRank : public ::testing::TestWithParam<comm::TransportKind> {};

TEST_P(EmptyRank, RankWithoutAtomsStepsThrough) {
  md::System global(md::Box(40.0, 10.0, 10.0), 39.948);
  global.add_atom({9.0, 5.0, 5.0});
  global.add_atom({11.0, 5.0, 5.0});
  comm::test::make(GetParam(), 2)->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global,
                            std::make_shared<ref::PairLJ>(0.0104, 2.0, 3.0),
                            0.002, 0.3, 3);
    psim.run(5);
    EXPECT_EQ(psim.global_state().natoms, 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Transports, EmptyRank,
                         ::testing::ValuesIn(comm::test::kBothKinds),
                         comm::test::kind_name);

TEST(ParallelSnap, EnergyAndForcesMatchSerial) {
  // SNAP is the paper's potential: validate the many-body force path
  // (including reverse ghost-force communication) against serial.
  snap::SnapParams p;
  p.twojmax = 4;
  p.rcut = 2.6;
  snap::SnapModel model;
  model.params = p;
  Rng rng(23);
  model.beta.resize(snap::SnapIndex(p.twojmax).num_b());
  for (auto& b : model.beta) b = 0.02 * rng.uniform(-1, 1);

  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 3;
  md::System global = md::build_lattice(spec, 12.011);
  md::perturb(global, 0.08, rng);
  Rng vel_rng(29);
  global.thermalize(300.0, vel_rng);

  md::Simulation serial(global,
                        std::make_shared<snap::SnapPotential>(model), 5e-4,
                        0.4, 5);
  serial.run(25);

  comm::test::make(comm::TransportKind::Thread, 4)->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global,
                            std::make_shared<snap::SnapPotential>(model),
                            5e-4, 0.4, 5);
    psim.run(25);
    const auto g = psim.global_state();
    EXPECT_NEAR(g.potential_energy, serial.potential_energy(),
                1e-7 * std::max(1.0, std::abs(serial.potential_energy())));
    md::System gathered = psim.gather_global();
    for (int i = 0; i < gathered.nlocal(); ++i) {
      const long id = gathered.id[i];
      const Vec3 d = serial.system().box().minimum_image(
          serial.system().x[static_cast<std::size_t>(id)], gathered.x[i]);
      EXPECT_NEAR(d.norm(), 0.0, 1e-8);
    }
  });
}

// The collectives fold in rank order on either backend, so the same
// 4-rank run must give the same bits as threads or as processes: the
// allreduced energies and every gathered position.
TEST(ParallelTersoff, ThreadAndSocketRunsAreBitwiseIdentical) {
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 3;
  md::System global = md::build_lattice(spec, 12.011);
  Rng rng(41);
  md::perturb(global, 0.05, rng);
  global.thermalize(3000.0, rng);

  // Rank 0 ships the global state followed by the gathered system.
  const auto run = [&global](comm::TransportKind kind) {
    return comm::test::make(kind, 4)->run_gather([&](comm::Transport& c) {
      ParallelSimulation psim(c, global,
                              std::make_shared<ref::PairTersoff>(), 5e-4,
                              0.4, 41);
      psim.run(40);
      const GlobalState g = psim.global_state();
      const md::System gathered = psim.gather_global();
      if (c.rank() != 0) return std::vector<std::byte>{};
      auto out = comm::to_bytes(g);
      const auto sys = md::checkpoint_bytes(gathered);
      out.insert(out.end(), sys.begin(), sys.end());
      return out;
    });
  };
  const auto thread_bytes = run(comm::TransportKind::Thread);
  const auto socket_bytes = run(comm::TransportKind::Socket);
  const auto state = [](const std::vector<std::byte>& b) {
    return comm::from_bytes<GlobalState>(
        {b.begin(), b.begin() + sizeof(GlobalState)});
  };
  const auto system = [](const std::vector<std::byte>& b) {
    return md::system_from_checkpoint_bytes(
        std::span(b).subspan(sizeof(GlobalState)));
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  const GlobalState gt = state(thread_bytes);
  const GlobalState gs = state(socket_bytes);
  EXPECT_EQ(gt.natoms, global.nlocal());
  EXPECT_EQ(gs.natoms, gt.natoms);
  EXPECT_EQ(bits(gs.potential_energy), bits(gt.potential_energy));
  EXPECT_EQ(bits(gs.kinetic_energy), bits(gt.kinetic_energy));
  EXPECT_EQ(bits(gs.temperature), bits(gt.temperature));
  EXPECT_EQ(bits(gs.virial), bits(gt.virial));

  const md::System st = system(thread_bytes);
  const md::System ss = system(socket_bytes);
  ASSERT_EQ(ss.nlocal(), st.nlocal());
  for (int i = 0; i < st.nlocal(); ++i) {
    ASSERT_EQ(ss.id[i], st.id[i]) << "index " << i;
    EXPECT_EQ(bits(ss.x[i].x), bits(st.x[i].x)) << "atom " << st.id[i];
    EXPECT_EQ(bits(ss.x[i].y), bits(st.x[i].y)) << "atom " << st.id[i];
    EXPECT_EQ(bits(ss.x[i].z), bits(st.x[i].z)) << "atom " << st.id[i];
  }
}

TEST(ParallelTimers, BreakdownCoversCategories) {
  md::System global = make_argon(3, 30.0, 31);
  comm::test::make(comm::TransportKind::Thread, 4)->run([&](comm::Transport& c) {
    ParallelSimulation psim(c, global, make_lj(), 0.002, 0.5, 31);
    psim.run(30);
    const auto& t = psim.timers();
    // Unified taxonomy: same category names as the serial driver; the
    // Fig. 4 presentation labels live in md::fig4_label.
    EXPECT_GT(t.total(TimerCategory::Pair), 0.0);
    EXPECT_GT(t.total(TimerCategory::Neigh), 0.0);
    EXPECT_GT(t.total(TimerCategory::Comm), 0.0);
    EXPECT_GT(t.total(TimerCategory::Other), 0.0);
    EXPECT_STREQ(md::fig4_label(TimerCategory::Pair), "SNAP");
    EXPECT_STREQ(md::fig4_label(TimerCategory::Comm), "MPI Comm");
  });
}

}  // namespace
}  // namespace ember::parallel
