// TestSNAP Fig. 3 — optimization progression relative to baseline, 2J = 14.
//
// Same protocol as Fig. 2 at the 204-component problem size, where the
// O(J^5) Z storage and O(J^7) coupling sweep dominate — the regime whose
// memory footprint forced the adjoint refactorization in the paper
// ("there is no trivial solution to the out-of-memory error for 2J14").
// Atom count is reduced to keep single-core wall time sane (200, whole
// blocks at every lane width); the grind time metric is per-atom so the
// comparison is unaffected.

#include <cstdio>

#include "common/table.hpp"
#include "snap/indexing.hpp"
#include "testsnap_bars.hpp"

int main() {
  using namespace ember;
  snap::SnapParams p;
  p.twojmax = 14;
  p.rcut = 4.7;

  const snap::SnapIndex idx(p.twojmax);
  std::printf(
      "== TestSNAP Fig. 3: progress relative to baseline, 2J = 14 ==\n"
      "%d bispectrum components; Z storage per atom = %d complex values\n"
      "(vs %d for Y under the adjoint refactorization).\n"
      "200 atoms, 26 neighbors (grind time is per atom).\n\n",
      idx.num_b(), idx.z_total(), idx.u_total());

  const auto bars = bench::time_testsnap_bars(p, 200, 26, 2021, 2);
  TextTable table({"Bar", "Grind time (us/atom)", "Speedup vs Baseline"});
  for (const auto& b : bars) {
    table.add_row(bench::bar_name(b), 1e6 * b.grind,
                  bars.front().grind / b.grind);
  }
  table.print();
  std::printf(
      "\nShape check vs the paper: the O(J^7) coupling sweep (Z in\n"
      "Baseline, Y in Production) weighs on both bars here, so the adjoint\n"
      "step and the lane width each gain less than at 2J = 8.\n");
  return 0;
}
