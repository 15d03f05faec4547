// TestSNAP Fig. 2 — optimization progression relative to baseline, 2J = 8.
//
// The paper's figure shows grind-time speedup over the baseline GPU kernel
// as optimizations V1..V7 accumulate. This harness times the two TestSNAP
// bars (src/snap/testsnap.hpp): the Baseline oracle stages, then the
// production kernel at every lane width the host runs, on the paper's
// 2000-atom, 26-neighbor problem.

#include <cstdio>

#include "common/table.hpp"
#include "testsnap_bars.hpp"

int main() {
  using namespace ember;
  std::printf(
      "== TestSNAP Fig. 2: progress relative to baseline, 2J = 8 ==\n"
      "2000 atoms, 26 neighbors; bars are speedup over Baseline (higher is "
      "better).\n\n");

  snap::SnapParams p;
  p.twojmax = 8;
  p.rcut = 4.7;
  const auto bars = bench::time_testsnap_bars(p, 2000, 26, 2021, 2);
  TextTable table({"Bar", "Grind time (us/atom)", "Speedup vs Baseline"});
  for (const auto& b : bars) {
    table.add_row(bench::bar_name(b), 1e6 * b.grind,
                  bars.front().grind / b.grind);
  }
  table.print();
  std::printf(
      "\nShape check vs the paper: the adjoint refactorization (Y + dE\n"
      "instead of Z + dB) is the largest algorithmic step; the vector\n"
      "lanes multiply it. The paper's V1-V7 map onto these bars in\n"
      "EXPERIMENTS.md.\n");
  return 0;
}
