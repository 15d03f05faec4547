#pragma once

// TestSNAP: the grind-time harness behind Table I and Figs. 2-3.
//
// Gayatri et al. (arXiv:2011.12875) built the TestSNAP proxy app to
// iterate on the SNAP force kernel outside LAMMPS, so that each
// optimization found in the proxy lands in production. Here the proxy
// drives the production code itself, on a synthetic workload: natoms
// neighborhoods of nnbor random neighbors each and random linear
// coefficients, from a fixed seed. It has two bars:
//
//   Baseline    Bispectrum's oracle stages, the sequence of
//               SnapPotential::Path::Baseline (the paper's Listing 1):
//               compute_ui -> compute_zi -> per neighbor dU and dB
//               (compute_deidrj_baseline). O(J^5) Z storage and O(J^5)
//               dB work per neighbor.
//   Production  SnapPotential's linear atom-block sequence: compute_ui
//               per atom lane, one compute_yi_block per block of
//               lane-width atoms, compute_deidrj_all per atom. It holds
//               the paper's V3 (adjoint Y and dE), V5 (half column
//               range), V6 (split re/im planes, vector lanes) and V7
//               (kept Cayley-Klein mappings); the V4 dU+dE fusion is its
//               reverse sweep. The V1/V2 staging steps were not kept.
//               It runs at the lane width simd::choose_isa() gives when
//               the TestSnap is constructed.
//
// forces() holds each atom's sum over its neighbors of dE_i/dr_k. Both
// bars agree to <= 1e-12 at every width (tests/snap/test_testsnap.cpp).

#include <memory>
#include <vector>

#include "common/vec3.hpp"
#include "parallel/thread_pool.hpp"
#include "snap/bispectrum.hpp"

namespace ember::snap {

enum class TestSnapBar { Baseline, Production };

const char* to_string(TestSnapBar bar);

class TestSnap {
 public:
  TestSnap(const SnapParams& params, int natoms, int nnbor,
           std::uint64_t seed = 2021);

  // ISA of the Production bar, fixed at construction.
  [[nodiscard]] simd::SimdIsa simd_isa() const {
    return workers_.front().bi.simd_isa();
  }

  // Execute one full force computation of the given bar; returns elapsed
  // seconds. Fills forces() with the per-atom sum of dE_i/dr_k. A
  // threaded policy gives each pool worker one contiguous atom block and
  // its own Bispectrum (built before the clock starts); an atom's result
  // does not depend on its block, so forces are bitwise equal to serial.
  double run(TestSnapBar bar, ExecutionPolicy policy = {});

  // Grind time [s / atom-step] over `repeats` runs (best of).
  double grind_time(TestSnapBar bar, int repeats = 3,
                    ExecutionPolicy policy = {});

  [[nodiscard]] std::span<const Vec3> forces() const { return forces_; }

 private:
  // One worker's kernel state: the engine and its per-neighbor dE.
  struct Worker {
    Bispectrum bi;
    std::vector<Vec3> de;
  };

  // forces_[i] for i in [begin, end), on one worker's state.
  void run_baseline(Worker& w, int begin, int end);
  void run_production(Worker& w, int begin, int end);

  [[nodiscard]] std::span<const Vec3> neighbors(int i) const {
    return {rij_.data() + static_cast<std::size_t>(i) * nnbor_,
            static_cast<std::size_t>(nnbor_)};
  }

  int natoms_;
  int nnbor_;
  std::vector<double> beta_;
  std::vector<double> y_coeff_;  // beta[idxb] * beta_scale per triple
  std::vector<Vec3> rij_;        // natoms x nnbor displacements
  std::vector<Vec3> forces_;     // per-atom force sums
  // workers_[0] runs serial sweeps; threaded runs add copies of it, so
  // every worker keeps the ISA chosen at construction.
  std::vector<Worker> workers_;
  std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace ember::snap
