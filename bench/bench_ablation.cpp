// Ablation studies of the MD engine's design choices (DESIGN.md §4):
//   (a) neighbor-list skin: rebuild frequency vs per-step list size;
//   (b) SNAP execution path: adjoint vs baseline across 2J.

#include <cstdio>
#include <memory>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "md/lattice.hpp"
#include "md/simulation.hpp"
#include "ref/pair_lj.hpp"
#include "snap/snap_potential.hpp"

int main() {
  using namespace ember;

  std::printf("== Ablation (a): neighbor skin on hot LJ argon ==\n\n");
  {
    TextTable table({"Skin [A]", "steps/s", "Neigh %", "Pair %"});
    for (const double skin : {0.1, 0.3, 0.6, 1.2, 2.0}) {
      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Fcc;
      spec.a = 5.26;
      spec.nx = spec.ny = spec.nz = 4;
      md::System sys = md::build_lattice(spec, 39.948);
      Rng rng(1);
      sys.thermalize(200.0, rng);
      md::Simulation sim(std::move(sys),
                         std::make_shared<ref::PairLJ>(0.0104, 3.4, 4.2),
                         0.003, skin, 1);
      sim.integrator().set_langevin(md::LangevinParams{200.0, 0.1});
      sim.setup();
      sim.reset_timers();
      WallTimer t;
      sim.run(400);
      const auto& timers = sim.timers();
      table.add_row(skin, 400.0 / t.seconds(),
                    100.0 * timers.fraction(TimerCategory::Neigh),
                    100.0 * timers.fraction(TimerCategory::Pair));
    }
    table.print();
    std::printf("\nSmall skins rebuild constantly; large skins inflate the\n"
                "pair loop — the classic optimum sits in between.\n");
  }

  std::printf("\n== Ablation (b): SNAP adjoint vs baseline across 2J ==\n\n");
  {
    TextTable table({"2J", "Components", "Adjoint [ms/step]",
                     "Baseline [ms/step]", "Baseline/Adjoint"});
    for (const int twojmax : {4, 6, 8}) {
      snap::SnapParams p;
      p.twojmax = twojmax;
      p.rcut = 2.6;
      snap::SnapModel m;
      m.params = p;
      Rng rng(3);
      m.beta.assign(snap::SnapIndex(twojmax).num_b(), 0.0);
      for (auto& b : m.beta) b = 0.002 * rng.uniform(-1, 1);

      md::LatticeSpec spec;
      spec.kind = md::LatticeKind::Diamond;
      spec.a = 3.567;
      spec.nx = spec.ny = spec.nz = 2;

      double times[2];
      for (int path = 0; path < 2; ++path) {
        md::System sys = md::build_lattice(spec, 12.011);
        Rng vrng(5);
        sys.thermalize(300.0, vrng);
        auto pot = std::make_shared<snap::SnapPotential>(
            m, path == 0 ? snap::SnapPotential::Path::Adjoint
                         : snap::SnapPotential::Path::Baseline);
        md::Simulation sim(std::move(sys), pot, 2.5e-4, 0.4, 5);
        sim.setup();
        WallTimer t;
        sim.run(10);
        times[path] = t.seconds() / 10.0 * 1e3;
      }
      table.add_row(twojmax, snap::SnapIndex(twojmax).num_b(), times[0],
                    times[1], times[1] / times[0]);
    }
    table.print();
    std::printf("\nThe adjoint advantage grows with 2J — the paper's O(J^5)\n"
                "-> O(J^3) per-neighbor reduction at work.\n");
  }
  return 0;
}
