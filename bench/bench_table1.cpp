// Table I — SNAP performance across hardware.
//
// The paper's table reports Katom-steps/s and normalized fraction of peak
// for nine 2012-2018 platforms on a 2000-atom, 26-neighbor, 2J=8 problem.
// We cannot time historical hardware, so this harness (a) reproduces the
// table's *arithmetic* from the published speeds and nominal peaks —
// the normalized fraction-of-peak column is derived, not copied — and
// (b) appends measured rows for THIS host running the TestSNAP bars
// (the Baseline oracle stages and the production kernel at each lane
// width) on exactly the paper's problem size.

#include <cstdio>
#include <string>

#include "common/table.hpp"
#include "testsnap_bars.hpp"

namespace {

struct Platform {
  const char* name;
  int year;
  double speed_katom_s;  // paper, Katom-steps/s
  double peak_tflops;    // paper, nominal node peak
};

// Values from Table I of the paper.
constexpr Platform kPlatforms[] = {
    {"Intel SandyBridge", 2012, 17.7, 0.332},
    {"IBM PowerPC", 2012, 2.52, 0.205},
    {"AMD CPU", 2013, 5.35, 0.141},
    {"NVIDIA K20X", 2013, 2.60, 1.31},
    {"Intel Haswell", 2016, 29.4, 1.18},
    {"Intel KNL", 2016, 11.1, 2.61},
    {"NVIDIA P100", 2016, 21.8, 5.30},
    {"Intel Broadwell", 2017, 25.4, 1.21},
    {"NVIDIA V100", 2018, 32.8, 7.8},
};

}  // namespace

int main() {
  using namespace ember;
  std::printf(
      "== Table I: SNAP performance on different hardware ==\n"
      "Problem: 2000 atoms, 26 neighbors/atom, 2J = 8 (55 components).\n"
      "Fraction of peak is (speed/peak) normalized to Intel SandyBridge,\n"
      "recomputed here from the published speed and peak columns.\n\n");

  const double sandybridge_ratio =
      kPlatforms[0].speed_katom_s / kPlatforms[0].peak_tflops;

  TextTable table({"Hardware", "Year", "Speed (Katom-steps/s)",
                   "Peak/node (TFLOPs)", "Fraction of peak (norm.)"});
  for (const auto& p : kPlatforms) {
    const double frac = (p.speed_katom_s / p.peak_tflops) / sandybridge_ratio;
    table.add_row(p.name, p.year, p.speed_katom_s, p.peak_tflops, frac);
  }

  // Measured rows: this host, same problem size, one core. Their peak
  // and fraction of peak stay n/a until the host's peak is measured.
  snap::SnapParams params;
  params.twojmax = 8;
  params.rcut = 4.7;
  for (const auto& b : bench::time_testsnap_bars(params, 2000, 26, 42, 2)) {
    table.add_row("ember " + bench::bar_name(b) + ", this host, 1 core",
                  2026, 1.0 / b.grind / 1e3, "n/a", "n/a");
  }
  table.print();

  std::printf(
      "\nPaper shape check: GPU rows (K20X, P100, V100) sit far below the\n"
      "CPU rows in normalized fraction of peak — the motivation for the\n"
      "optimization campaign of Figs. 2-3.\n");
  return 0;
}
