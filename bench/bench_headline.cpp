// The paper's §1/§7 headline numbers, reproduced from first principles:
//
//   * 20 G atoms on 4,650 Summit nodes -> 6.21 Matom-steps/node-s,
//     1.47 timesteps/s
//   * measured FLOP count -> 50.0 PFLOPS = 24.9% of theoretical peak
//   * 22.9x the DeepMD record of 0.271 Matom-steps/node-s
//   * ~1.7 MFLOP per atom-step, cross-checked against the analytic FLOP
//     count of the ember SNAP kernel at the production problem size.

// A further section runs the *production* SNAP force engine
// (SnapPotential over a periodic diamond system) on one thread: its force
// parity against the independent Baseline (Z/dB) path, and the roofline
// readout — per-stage GFLOP/s from the always-on snap.*_seconds counters
// and the analytic Bispectrum::flops_* counts, against a DP peak derived
// from the probed ISA width and clock (the paper's Table-I-style
// fraction-of-peak, at node scale in the paper, at core scale here).
// --json <path> records that section as machine-stamped JSON
// (BENCH_headline.json at the repo root). Grind time and output cost are
// perfbench's to measure (`python3 perfbench/run.py`).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "comm/transport.hpp"
#include "recorder.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "obs/machine.hpp"
#include "obs/metrics.hpp"
#include "perf/scaling.hpp"
#include "snap/bispectrum.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/snap_potential.hpp"

namespace {

// ---- production kernel: Baseline parity + roofline stage breakdown -------

ember::snap::SnapModel production_model() {
  using namespace ember;
  snap::SnapParams p;
  p.twojmax = 8;
  // ~28 neighbors on diamond carbon (3 shells), close to the paper's ~26
  // in compressed carbon at 2J=8.
  p.rcut = 3.1;
  p.bzero_flag = true;
  snap::SnapModel m;
  m.params = p;
  Rng rng(7);
  m.beta.resize(snap::SnapIndex(p.twojmax).num_b());
  for (auto& b : m.beta) b = 0.02 * rng.uniform(-1.0, 1.0);
  m.beta0 = -1.0;
  return m;
}

struct KernelRun {
  int natoms = 0;
  double avg_neighbors = 0.0;
  std::vector<ember::Vec3> f;
};

// Five single-thread force calls on one 512-atom configuration (the
// first touches every cache).
KernelRun run_production(ember::snap::SnapPotential::Path path) {
  using namespace ember;
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 4;
  md::System sys = md::build_lattice(spec, 12.011);
  Rng rng(11);
  md::perturb(sys, 0.04, rng);

  snap::SnapPotential pot(production_model(), path);
  const md::ComputeContext ctx{ExecutionPolicy{1}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);

  KernelRun out;
  out.natoms = sys.nlocal();
  std::size_t pairs = 0;
  for (int i = 0; i < sys.nlocal(); ++i) pairs += nl.neighbors(i).size();
  out.avg_neighbors = static_cast<double>(pairs) / sys.nlocal();
  for (int r = 0; r < 5; ++r) {
    sys.zero_forces();
    pot.compute(ctx, sys, nl);
  }
  out.f.assign(sys.f.begin(), sys.f.begin() + sys.nlocal());
  return out;
}

double max_component_delta(const std::vector<ember::Vec3>& a,
                           const std::vector<ember::Vec3>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (int d = 0; d < 3; ++d) m = std::max(m, std::abs(a[i][d] - b[i][d]));
  }
  return m;
}

struct StageReadout {
  const char* stage;
  double seconds = 0.0;
  double gflop = 0.0;  // analytic FLOP count over the run, in 1e9 units
};

// Stage seconds of the adjoint run from the snap.* counters, stage FLOPs
// from the analytic Bispectrum::flops_* counts scaled by the counted
// atoms/neighbor visits. The counts exclude padded remainder lanes — only
// useful flops credit the rate, so fraction-of-peak stays honest.
std::vector<StageReadout> read_stages() {
  using namespace ember;
  auto& reg = obs::Registry::global();
  const double atoms = reg.counter("snap.atoms").value();
  const double neigh = reg.counter("snap.neighbors").value();
  const snap::Bispectrum bi(production_model().params);
  // flops_ui(n) is affine in n: a per-atom part (self term + zeroing) plus
  // a per-neighbor recursion slope.
  const double ui_base = bi.flops_ui(0);
  const double ui_slope = bi.flops_ui(1) - ui_base;
  return {
      {"ui", reg.counter("snap.ui_seconds").value(),
       1e-9 * (ui_slope * neigh + ui_base * atoms)},
      {"yi", reg.counter("snap.yi_seconds").value(),
       1e-9 * bi.flops_yi() * atoms},
      {"dei", reg.counter("snap.dei_seconds").value(),
       1e-9 * (bi.flops_duidrj() + bi.flops_deidrj()) * neigh},
  };
}

// DP peak per core of the kernel that runs: nominal clock x SIMD lanes of
// its ISA (choose_isa(), so EMBER_SIMD lowers the peak with the width) x
// 2 (FMA counts as two flops) x 2 (two FMA ports per core on the
// AVX2/AVX-512 parts this targets). 0 when the clock could not be probed.
double dp_peak_gflops_core(const ember::obs::MachineInfo& m,
                           ember::snap::simd::SimdIsa isa) {
  return m.clock_ghz * ember::snap::simd::lane_width(isa) * 2.0 * 2.0;
}

void production_section(const char* json_path) {
  using namespace ember;
  using obs::Json;
  using snap::simd::lane_width;
  using snap::simd::to_string;
  const snap::simd::SimdIsa isa = snap::simd::choose_isa();
  // The counters only ever grow; this process has run no SNAP before.
  const KernelRun adjoint = run_production(snap::SnapPotential::Path::Adjoint);
  const std::vector<StageReadout> stages = read_stages();
  const double delta = max_component_delta(
      adjoint.f, run_production(snap::SnapPotential::Path::Baseline).f);

  std::printf("\n== Production SNAP kernel: adjoint lane kernel [%s, width %d] "
              "(2J=8, %d atoms, %.0f nbrs) ==\n",
              to_string(isa), lane_width(isa), adjoint.natoms,
              adjoint.avg_neighbors);
  std::printf("\n  parity (max |f_adjoint - f_baseline|):    %.3g\n", delta);

  bench::Recorder rec("headline_production_kernel");
  // This bench is single-rank, single-thread work; the transport named
  // here is whatever a comm-using run would get by default.
  rec.record_run(comm::to_string(comm::default_transport_kind()), 1, 1);
  rec.root().set("twojmax", 8);
  rec.root().set("natoms", adjoint.natoms);
  rec.root().set("avg_neighbors", adjoint.avg_neighbors, "%.1f");
  rec.root().set("max_force_delta_vs_baseline", delta, "%.3g");

  // Table-I-style readout: measured per-stage GFLOP/s against the DP peak
  // of one core (the paper reports 24.9% of Summit's peak at node scale;
  // this is the same accounting at core scale).
  const obs::MachineInfo mach = obs::probe_machine();
  const double peak = dp_peak_gflops_core(mach, isa);
  Json roofline = Json::object();
  roofline.set("isa", to_string(isa));
  roofline.set("lane_width", lane_width(isa));
  roofline.set("clock_ghz", mach.clock_ghz, "%.2f");
  roofline.set("dp_peak_gflops_core", peak, "%.1f");
  Json stage_rows = Json::array();
  std::printf("\n  roofline (1 thread, %s, DP peak %.1f GFLOP/s/core):\n",
              to_string(isa), peak);
  std::printf("    stage   seconds    GFLOP/s   %% of peak\n");
  for (const StageReadout& s : stages) {
    const double rate = s.seconds > 0.0 ? s.gflop / s.seconds : 0.0;
    const double frac = peak > 0.0 ? rate / peak : 0.0;
    stage_rows.push(Json::object()
                        .set("stage", s.stage)
                        .set("seconds", s.seconds, "%.4g")
                        .set("gflops", rate, "%.2f")
                        .set("fraction_of_peak", frac, "%.4f"));
    std::printf("    %-5s   %7.4f   %8.2f   %8.1f%%\n", s.stage, s.seconds,
                rate, 100.0 * frac);
  }
  roofline.set("stages", std::move(stage_rows));
  rec.root().set("roofline", std::move(roofline));
  rec.emit(json_path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ember;
  const char* json_path = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  // FLOPs per atom-step from the production kernel's analytic counts
  // (2J=8, the production choice, ~26 neighbors in compressed carbon).
  snap::SnapParams p;
  p.twojmax = 8;
  const double flops_kernel = snap::Bispectrum(p).flops_adjoint_atom(26);
  const double flops_paper = 50.0e15 / (6.21e6 * 4650);

  perf::ScalingModel model(perf::MachineModel::summit(), flops_paper);
  const auto run = model.predict(19.683e9, 4650);

  std::printf("== Headline reproduction ==\n\n");
  std::printf("FLOPs per atom-step (paper, implied):    %.3g\n", flops_paper);
  // The production kernel computes only the half column range 2*mb <= j,
  // so it executes about half the full-range count the paper implies.
  std::printf("FLOPs per atom-step (ember, half range): %.3g  (ratio %.2f)\n",
              flops_kernel, flops_kernel / flops_paper);
  std::printf("\n20 G atoms on 4,650 Summit nodes (model):\n");
  std::printf("  MD performance: %6.2f Matom-steps/node-s   (paper 6.21)\n",
              run.matom_steps_per_node_s());
  std::printf("  timesteps/s:    %6.2f                      (paper 1.47)\n",
              1.0 / run.step_time());
  std::printf("  sustained:      %6.1f PFLOPS               (paper 50.0)\n",
              model.pflops(run));
  std::printf("  fraction peak:  %6.1f %%                    (paper 24.9%%)\n",
              100.0 * model.fraction_of_peak(run));
  std::printf("  vs DeepMD:      %6.1f x                     (paper 22.9x)\n",
              run.matom_steps_per_node_s() / 0.271);
  std::printf(
      "\nWeak-scaling implication (paper): 373,248 atoms/node at full scale\n"
      "sustains ~1 ns/day; model: %.2f ns/day at 0.5 fs/step.\n",
      model.predict(373248.0 * 4650, 4650).matom_steps_per_node_s() * 1e6 /
          373248.0 * 0.5e-6 * 86400.0);

  production_section(json_path);
  return 0;
}
