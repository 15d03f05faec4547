// google-benchmark microbenchmarks of the individual SNAP stages, the
// paper's Listing-1/Listing-5 building blocks, across 2J. Confirms the
// complexity hierarchy: compute_zi/yi O(J^7) per atom dominates at large
// 2J; per-neighbor dB O(J^5) vs dE O(J^3) is the adjoint win. The
// production stages (ui, yi, dE and the whole adjoint atom) run over a
// full block of lane-width atoms, one atom per lane, each with the same
// 26-neighbor shell (the work does not depend on the values), and report
// time per atom in the s_per_atom counter.

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

// A full block of lane-width atoms, every one with the workload's shell.
std::vector<Bispectrum::AtomNeighbors> full_block(const Bispectrum& bi,
                                                  const Workload& w) {
  return std::vector<Bispectrum::AtomNeighbors>(
      bi.lane_width(), Bispectrum::AtomNeighbors{w.rij, {}});
}

void per_atom(benchmark::State& state, const Bispectrum& bi) {
  state.counters["s_per_atom"] = benchmark::Counter(
      bi.lane_width(), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}

void BM_ComputeUi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  const auto block = full_block(bi, w);
  for (auto _ : state) {
    bi.compute_ui_block(block);
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
  per_atom(state, bi);
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

void BM_ComputeYi(benchmark::State& state) {
  const auto w = make_workload(static_cast<int>(state.range(0)));
  Bispectrum bi(w.params);
  std::vector<double> coeffs;
  bi.index().fold_beta(w.beta, coeffs);
  bi.compute_ui_block(full_block(bi, w));
  for (auto _ : state) {
    bi.compute_yi_block(coeffs);
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
  per_atom(state, bi);
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
  std::vector<double> coeffs;
  bi.index().fold_beta(w.beta, coeffs);
  bi.compute_ui_block(full_block(bi, w));
  bi.compute_yi_block(coeffs);
  for (auto _ : state) {
    bi.compute_deidrj_block();
    benchmark::DoNotOptimize(&bi);
    benchmark::ClobberMemory();
  }
  per_atom(state, bi);
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
  std::vector<double> coeffs;
  bi.index().fold_beta(w.beta, coeffs);
  const auto block = full_block(bi, w);
  for (auto _ : state) {
    bi.compute_ui_block(block);
    bi.compute_yi_block(coeffs);
    bi.compute_deidrj_block();
    Vec3 f;
    for (int l = 0; l < bi.lane_width(); ++l) {
      for (std::size_t k = 0; k < w.rij.size(); ++k) f += bi.deidrj(l, k);
    }
    benchmark::DoNotOptimize(f);
  }
  per_atom(state, bi);
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
