// The paper's §1/§7 headline numbers, reproduced from first principles:
//
//   * 20 G atoms on 4,650 Summit nodes -> 6.21 Matom-steps/node-s,
//     1.47 timesteps/s
//   * measured FLOP count -> 50.0 PFLOPS = 24.9% of theoretical peak
//   * 22.9x the DeepMD record of 0.271 Matom-steps/node-s
//   * ~1.7 MFLOP per atom-step, cross-checked against the analytic FLOP
//     count of the ember SNAP kernel at the production problem size.
//
// Plus a *measured* node-level thread-scaling column: the TestSNAP
// adjoint kernel (2J=8, 26 neighbors — the production workload of
// bench_fig2) ground through the thread pool at 1/2/4/8 threads,
// emitted as JSON for the scaling-curve table in README.

// A fourth section measures the *production* SNAP force engine
// (SnapPotential over a periodic diamond system): the adjoint lane kernel
// at the lane width the dispatcher picked, across thread counts, with its
// force parity against the independent Baseline (Z/dB) path, and
// optionally records the whole run as machine-stamped JSON (--json
// <path>; the bench_record CMake target writes BENCH_headline.json at the
// repo root). The naive -> adjoint optimization story is the TestSNAP
// benches (bench_fig2/fig3). Thread counts beyond the machine's hardware
// threads are stamped "oversubscribed": flat curves from a small
// container are annotated as such, not presented as scaling. A fifth
// section is the roofline readout: per-stage GFLOP/s from the kernel
// timing counters and the analytic Bispectrum::flops_* counts, against a
// DP peak derived from the probed ISA width and clock (the paper's
// Table-I-style fraction-of-peak, at node scale in the paper, at core
// scale here).

// A sixth section benchmarks the output pipeline (DESIGN.md §13): the
// same short MD run with dumps off, synchronous dumps, and asynchronous
// dumps, plus the on-disk size of XYZ vs the compressed EMBT1
// trajectory — recorded as the "io" stanza of BENCH_headline.json with
// the io.stall_seconds / io.stalls_avoided_seconds counter deltas, so
// the headline artifact states how much dump time the writer thread
// actually took off the stepping thread.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "common/timer.hpp"
#include "recorder.hpp"
#include "io/writer.hpp"
#include "md/compute_context.hpp"
#include "md/lattice.hpp"
#include "md/neighbor.hpp"
#include "md/simulation.hpp"
#include "obs/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/scaling.hpp"
#include "ref/pair_lj.hpp"
#include "snap/bispectrum.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/snap_potential.hpp"
#include "snap/testsnap.hpp"

namespace {

// threads -> grind time [s/atom-step] for the V3 adjoint variant.
void print_thread_scaling_json() {
  using namespace ember;
  snap::SnapParams p;
  p.twojmax = 8;
  p.rcut = 4.7;
  snap::TestSnap ts(p, 2000, 26, 2021);
  const auto v = snap::TestSnapVariant::V3_Adjoint;

  std::printf("\n== Thread scaling (measured, TestSNAP %s, 2J=8) ==\n\n",
              snap::to_string(v));
  const double serial = ts.grind_time(v, 2);
  obs::Json doc = obs::Json::object();
  doc.set("variant", snap::to_string(v));
  doc.set("twojmax", p.twojmax);
  doc.set("natoms", ts.natoms());
  doc.set("nnbor", ts.nnbor());
  obs::Json curve = obs::Json::array();
  for (const int nth : {1, 2, 4, 8}) {
    const double g = nth == 1 ? serial : ts.grind_time(v, 2, {nth});
    curve.push(obs::Json::object()
                   .set("threads", nth)
                   .set("s_per_atom_step", g, "%.4g")
                   .set("speedup", serial / g, "%.2f"));
  }
  doc.set("grind_time", std::move(curve));
  std::printf("%s\n", doc.dump(0).c_str());
}

// ---- production kernel benchmark ----------------------------------------

struct KernelRun {
  double grind = 0.0;  // s per atom-step
  double energy = 0.0;
  std::vector<ember::Vec3> f;
};

struct ProductionBench {
  int natoms = 0;
  double avg_neighbors = 0.0;
  ember::snap::simd::SimdIsa isa = ember::snap::simd::SimdIsa::Scalar;
  std::vector<KernelRun> runs;  // one per kThreadCounts entry
  double max_force_delta = 0.0;  // adjoint vs Baseline path, 1 thread
};

constexpr int kThreadCounts[] = {1, 2, 4, 8};

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

KernelRun run_production(
    int nthreads, double* avg_neighbors,
    ember::snap::SnapPotential::Path path =
        ember::snap::SnapPotential::Path::Adjoint) {
  using namespace ember;
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Diamond;
  spec.a = 3.567;
  spec.nx = spec.ny = spec.nz = 4;
  md::System sys = md::build_lattice(spec, 12.011);
  Rng rng(11);
  md::perturb(sys, 0.04, rng);

  snap::SnapPotential pot(production_model(), path);
  const md::ComputeContext ctx{ExecutionPolicy{nthreads}};
  md::NeighborList nl(pot.cutoff(), 0.3);
  nl.build(sys, /*use_ghosts=*/false, &ctx);
  if (avg_neighbors != nullptr) {
    std::size_t pairs = 0;
    for (int i = 0; i < sys.nlocal(); ++i) pairs += nl.neighbors(i).size();
    *avg_neighbors = static_cast<double>(pairs) / sys.nlocal();
  }

  KernelRun out;
  sys.zero_forces();
  pot.compute(ctx, sys, nl);  // warm-up: touches every per-thread cache
  constexpr int kReps = 4;
  WallTimer t;
  for (int r = 0; r < kReps; ++r) {
    sys.zero_forces();
    const auto ev = pot.compute(ctx, sys, nl);
    out.energy = ev.energy;
  }
  out.grind = t.seconds() / (kReps * sys.nlocal());
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

ProductionBench run_production_bench() {
  using namespace ember;
  ProductionBench b;
  b.isa = snap::simd::choose_isa();
  for (const int nth : kThreadCounts) {
    b.runs.push_back(run_production(nth, &b.avg_neighbors));
  }
  b.natoms = static_cast<int>(b.runs[0].f.size());
  const KernelRun baseline =
      run_production(1, nullptr, snap::SnapPotential::Path::Baseline);
  b.max_force_delta = max_component_delta(b.runs[0].f, baseline.f);
  return b;
}

// ---- roofline stage breakdown -------------------------------------------

struct StageReadout {
  const char* stage;
  double seconds = 0.0;
  double gflop = 0.0;  // analytic FLOP count over the run, in 1e9 units
};

// Single-thread production workload with kernel timing on; stage seconds
// come from the snap.* counters, stage FLOPs from the analytic
// Bispectrum::flops_* counts scaled by the counted atoms/neighbor visits.
// The counts exclude padded remainder lanes — only useful flops credit
// the rate, so fraction-of-peak stays honest.
std::vector<StageReadout> measure_stages() {
  using namespace ember;
  auto& reg = obs::Registry::global();
  for (const char* c : {"snap.ui_seconds", "snap.yi_seconds",
                        "snap.dei_seconds", "snap.atoms", "snap.neighbors"}) {
    reg.counter(c).reset();
  }
  obs::set_kernel_timing(true);
  run_production(1, nullptr);
  obs::set_kernel_timing(false);

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

// == Output pipeline: dumps off vs sync vs async ============================

struct IoModeRun {
  const char* name = "";
  const char* format = "";      // "" when dumps are off
  double s_per_step = 0.0;      // wall clock per step, dump cost included
  double stall_seconds = 0.0;   // io.stall_seconds delta (stepping thread)
  double avoided_seconds = 0.0; // io.stalls_avoided_seconds delta (writer)
  long bytes = 0;               // trajectory size on disk
};

struct IoBench {
  int natoms = 0;
  long steps = 0;
  std::vector<IoModeRun> runs;
};

long file_size(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<long>(is.tellg()) : 0;
}

// One MD run over a fixed initial state; mode == nullptr means dumps off.
IoModeRun run_io_mode(const ember::md::System& initial, long steps,
                      const char* name, const ember::io::Mode* mode,
                      const std::string& path) {
  using namespace ember;
  namespace chrono = std::chrono;
  auto& stall = obs::Registry::global().counter("io.stall_seconds");
  auto& avoided = obs::Registry::global().counter("io.stalls_avoided_seconds");

  md::Simulation sim(initial, std::make_shared<ref::PairLJ>(0.0104, 3.4, 6.5),
                     0.002);
  if (mode != nullptr) {
    std::remove(path.c_str());
    sim.set_writer(io::make_writer(*mode));
    md::IoPlan plan;
    plan.dump_every = 1;  // worst case: a dump behind every step
    plan.dump_path = path;
    plan.dump_format = io::format_from_path(path);
    sim.set_io_plan(plan);
  }
  sim.setup();  // neighbor build + first forces outside the timed region

  IoModeRun run;
  run.name = name;
  run.format = mode != nullptr ? io::to_string(io::format_from_path(path)) : "";
  const double stall0 = stall.value();
  const double avoided0 = avoided.value();
  const auto t0 = chrono::steady_clock::now();
  sim.run(steps);
  sim.writer().drain();  // the async mode must pay for its queue too
  const auto t1 = chrono::steady_clock::now();
  run.s_per_step = chrono::duration<double>(t1 - t0).count() /
                   static_cast<double>(steps);
  run.stall_seconds = stall.value() - stall0;
  run.avoided_seconds = avoided.value() - avoided0;
  if (mode != nullptr) {
    run.bytes = file_size(path);
    std::remove(path.c_str());
  }
  return run;
}

IoBench run_io_bench() {
  using namespace ember;
  md::LatticeSpec spec;
  spec.kind = md::LatticeKind::Fcc;
  spec.a = 5.26;
  spec.nx = spec.ny = spec.nz = 6;
  md::System initial = md::build_lattice(spec, 39.948);
  Rng rng(99);
  initial.thermalize(40.0, rng);

  IoBench b;
  b.natoms = initial.nlocal();
  b.steps = 150;
  const io::Mode sync = io::Mode::Sync;
  const io::Mode async = io::Mode::Async;
  b.runs.push_back(run_io_mode(initial, b.steps, "off", nullptr, ""));
  b.runs.push_back(run_io_mode(initial, b.steps, "sync", &sync,
                               "/tmp/ember_bench_io.xyz"));
  b.runs.push_back(run_io_mode(initial, b.steps, "async", &async,
                               "/tmp/ember_bench_io_async.xyz"));
  b.runs.push_back(run_io_mode(initial, b.steps, "async", &async,
                               "/tmp/ember_bench_io.embt1"));
  return b;
}

ember::obs::Json io_bench_json(const IoBench& b) {
  using ember::obs::Json;
  Json stanza = Json::object();
  stanza.set("natoms", b.natoms);
  stanza.set("steps", b.steps);
  stanza.set("dump_every", 1);
  Json modes = Json::array();
  for (const IoModeRun& r : b.runs) {
    Json entry = Json::object().set("mode", r.name);
    if (r.format[0] != '\0') entry.set("format", r.format);
    entry.set("s_per_step", r.s_per_step, "%.4g");
    entry.set("stall_seconds", r.stall_seconds, "%.4g");
    entry.set("stalls_avoided_seconds", r.avoided_seconds, "%.4g");
    if (r.bytes > 0) entry.set("trajectory_bytes", r.bytes);
    modes.push(std::move(entry));
  }
  stanza.set("modes", std::move(modes));
  return stanza;
}

void print_io_bench(const IoBench& b) {
  std::printf("\n== Output pipeline: %d atoms, %ld steps, dump every step ==\n\n",
              b.natoms, b.steps);
  std::printf("  mode    format      us/step   stall [ms]   avoided [ms]"
              "   bytes\n");
  for (const IoModeRun& r : b.runs) {
    std::printf("  %-5s   %-9s   %7.1f   %10.2f   %12.2f   %7ld\n", r.name,
                r.format[0] != '\0' ? r.format : "-", 1e6 * r.s_per_step,
                1e3 * r.stall_seconds, 1e3 * r.avoided_seconds, r.bytes);
  }
}

ember::bench::Recorder production_recording(const ProductionBench& b) {
  using ember::obs::Json;
  using ember::snap::simd::lane_width;
  using ember::snap::simd::to_string;
  ember::bench::Recorder rec("headline_production_kernel");
  // This bench is single-rank thread-pool work; the transport named here
  // is whatever a comm-using run would get by default (EMBER_TRANSPORT).
  rec.record_run(
      ember::comm::to_string(ember::comm::default_transport_kind()), 1,
      kThreadCounts[std::size(kThreadCounts) - 1]);
  rec.root().set("twojmax", 8);
  rec.root().set("natoms", b.natoms);
  rec.root().set("avg_neighbors", b.avg_neighbors, "%.1f");

  const ember::obs::MachineInfo mach = ember::obs::probe_machine();
  Json curve = Json::array();
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    Json entry = Json::object()
                     .set("threads", kThreadCounts[i])
                     .set("s_per_atom_step", b.runs[i].grind, "%.4g");
    // More software threads than hardware threads: the point measures
    // scheduler interleaving, not scaling. Stamp it so readers (and
    // smoke.sh) never mistake a flat oversubscribed curve for speedup.
    if (kThreadCounts[i] > mach.hardware_threads) {
      entry.set("oversubscribed", true);
    }
    curve.push(std::move(entry));
  }
  Json kernels = Json::array();
  kernels.push(Json::object()
                   .set("kernel", "adjoint")
                   .set("isa", to_string(b.isa))
                   .set("lane_width", lane_width(b.isa))
                   .set("grind_time", std::move(curve)));
  rec.root().set("kernels", std::move(kernels));
  rec.root().set("max_force_delta_vs_baseline", b.max_force_delta, "%.3g");

  // Table-I-style readout: measured per-stage GFLOP/s against the DP peak
  // of one core (the paper reports 24.9% of Summit's peak at node scale;
  // this is the same accounting at core scale).
  const double peak = dp_peak_gflops_core(mach, b.isa);
  Json roofline = Json::object();
  roofline.set("isa", to_string(b.isa));
  roofline.set("lane_width", lane_width(b.isa));
  roofline.set("clock_ghz", mach.clock_ghz, "%.2f");
  roofline.set("dp_peak_gflops_core", peak, "%.1f");
  Json stages = Json::array();
  std::printf("\n  roofline (1 thread, %s, DP peak %.1f GFLOP/s/core):\n",
              to_string(b.isa), peak);
  std::printf("    stage   seconds    GFLOP/s   %% of peak\n");
  for (const StageReadout& s : measure_stages()) {
    const double rate = s.seconds > 0.0 ? s.gflop / s.seconds : 0.0;
    const double frac = peak > 0.0 ? rate / peak : 0.0;
    stages.push(Json::object()
                    .set("stage", s.stage)
                    .set("seconds", s.seconds, "%.4g")
                    .set("gflops", rate, "%.2f")
                    .set("fraction_of_peak", frac, "%.4f"));
    std::printf("    %-5s   %7.4f   %8.2f   %8.1f%%\n", s.stage, s.seconds,
                rate, 100.0 * frac);
  }
  roofline.set("stages", std::move(stages));
  rec.root().set("roofline", std::move(roofline));
  return rec;
}

void print_production_bench(const char* json_path) {
  using namespace ember;
  const ProductionBench b = run_production_bench();
  const obs::MachineInfo mach = obs::probe_machine();
  std::printf("\n== Production SNAP kernel: adjoint lane kernel [%s, width %d] "
              "(2J=8, %d atoms, %.0f nbrs) ==\n\n",
              snap::simd::to_string(b.isa), snap::simd::lane_width(b.isa),
              b.natoms, b.avg_neighbors);
  std::printf("  threads   grind [us/atom-step]   speedup\n");
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    const char* note = kThreadCounts[i] > mach.hardware_threads
                           ? "  (oversubscribed)"
                           : "";
    std::printf("  %7d   %20.2f   %6.2fx%s\n", kThreadCounts[i],
                1e6 * b.runs[i].grind, b.runs[0].grind / b.runs[i].grind,
                note);
  }
  std::printf("\n  parity (max |f_adjoint - f_baseline|):    %.3g\n",
              b.max_force_delta);

  const IoBench io = run_io_bench();
  print_io_bench(io);

  ember::bench::Recorder rec = production_recording(b);
  rec.root().set("io", io_bench_json(io));
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

  print_thread_scaling_json();
  print_production_bench(json_path);
  return 0;
}
