// google-benchmark microbenchmarks of the individual SNAP stages, the
// paper's Listing-1/Listing-5 building blocks, across 2J. Confirms the
// complexity hierarchy: compute_zi/yi O(J^7) per atom dominates at large
// 2J; per-neighbor dB O(J^5) vs dE O(J^3) is the adjoint win (the dE
// bench times the blocked pass over all 26 neighbors).

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "snap/bispectrum.hpp"

namespace {

using namespace ember;
using namespace ember::snap;

struct Workload {
  SnapParams params;
  std::vector<Vec3> rij;
  std::vector<double> beta;
};

Workload make_workload(int twojmax, int nnbor = 26) {
  Workload w;
  w.params.twojmax = twojmax;
  w.params.rcut = 4.7;
  Rng rng(7);
  while (static_cast<int>(w.rij.size()) < nnbor) {
    Vec3 r{rng.uniform(-4.7, 4.7), rng.uniform(-4.7, 4.7),
           rng.uniform(-4.7, 4.7)};
    if (r.norm() > 0.7 && r.norm() < 4.6) w.rij.push_back(r);
  }
  w.beta.resize(SnapIndex(twojmax).num_b());
  for (auto& b : w.beta) b = rng.uniform(-1, 1);
  return w;
}

void BM_ComputeUi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  for (auto _ : state) {
    bi.compute_ui(w.rij, {});
    benchmark::DoNotOptimize(bi.utot().data());
  }
}
BENCHMARK(BM_ComputeUi)->Arg(4)->Arg(8)->Arg(14);

void BM_ComputeZi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  for (auto _ : state) {
    bi.compute_zi();
    benchmark::DoNotOptimize(bi.zlist().data());
  }
}
BENCHMARK(BM_ComputeZi)->Arg(4)->Arg(8)->Arg(14);

// The production Y sweep: one compute_yi_block over a full block of
// lane-width atoms (the same neighbor shell in every lane; the sweep's
// work does not depend on the values). Time is reported per atom.
void BM_ComputeYi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  std::vector<double> coeffs;
  for (const auto& t : bi.index().z_triples()) {
    coeffs.push_back(w.beta[t.idxb] * t.beta_scale);
  }
  for (int lane = 0; lane < bi.lane_width(); ++lane) {
    bi.compute_ui(w.rij, {}, lane);
  }
  for (auto _ : state) {
    bi.compute_yi_block(coeffs);
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
  state.counters["s_per_atom"] = benchmark::Counter(
      bi.lane_width(), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_ComputeYi)->Arg(4)->Arg(8)->Arg(14);

void BM_ComputeDuidrj(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  for (auto _ : state) {
    bi.compute_duidrj(w.rij[0], 1.0);
    benchmark::DoNotOptimize(bi.dulist().data());
  }
}
BENCHMARK(BM_ComputeDuidrj)->Arg(4)->Arg(8)->Arg(14);

void BM_ComputeDeidrjAll(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  bi.compute_yi(w.beta);
  std::vector<Vec3> de(w.rij.size());
  for (auto _ : state) {
    bi.compute_deidrj_all(de);
    benchmark::DoNotOptimize(de.data());
  }
}
BENCHMARK(BM_ComputeDeidrjAll)->Arg(4)->Arg(8)->Arg(14);

void BM_ComputeDbidrj(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  bi.compute_ui(w.rij, {});
  bi.compute_zi();
  bi.compute_duidrj(w.rij[0], 1.0);
  for (auto _ : state) {
    bi.compute_dbidrj();
    benchmark::DoNotOptimize(bi.dblist().data());
  }
}
BENCHMARK(BM_ComputeDbidrj)->Arg(4)->Arg(8)->Arg(14);

// Whole-atom force evaluation, both execution paths (Listing 1 vs 5).
void BM_AtomAdjoint(benchmark::State& state) {
  const auto w = make_workload(8);
  Bispectrum bi(w.params);
  std::vector<Vec3> de(w.rij.size());
  for (auto _ : state) {
    bi.compute_ui(w.rij, {});
    bi.compute_yi(w.beta);
    bi.compute_deidrj_all(de);
    Vec3 f;
    for (const auto& d : de) f += d;
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_AtomAdjoint);

void BM_AtomBaseline(benchmark::State& state) {
  const auto w = make_workload(8);
  Bispectrum bi(w.params);
  std::vector<Vec3> de(w.rij.size());
  for (auto _ : state) {
    bi.compute_ui(w.rij, {});
    bi.compute_zi();
    bi.compute_deidrj_baseline(w.rij, w.beta, de);
    Vec3 f;
    for (const auto& d : de) f += d;
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_AtomBaseline);

}  // namespace

BENCHMARK_MAIN();
