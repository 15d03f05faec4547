#pragma once

// SNAP as an MD PairPotential.
//
// Wraps the Bispectrum kernel over a neighbor list. The execution path is
// selectable so benchmarks can contrast the paper's two algorithms:
//   Path::Adjoint  — ui -> yi -> per-neighbor dE over atom blocks (Listing 5)
//   Path::Baseline — compute_ui -> compute_zi -> per-neighbor dB (Listing 1)
// Both produce identical forces (tests pin this); the adjoint path is the
// production default.

#include <memory>
#include <string>
#include <vector>

#include "md/potential.hpp"
#include "snap/bispectrum.hpp"

namespace ember::snap {

// A trained SNAP model:
//   linear    E_i = beta0 + beta . B(i)
//   quadratic E_i = beta0 + beta . B(i) + 1/2 B(i)^T alpha B(i)
// where alpha is symmetric (stored dense, row-major num_b x num_b). The
// quadratic extension follows the LAMMPS quadraticflag formulation: the
// force path reuses the adjoint machinery with per-atom effective
// coefficients beta_eff(i) = beta + alpha B(i).
struct SnapModel {
  SnapParams params;
  double beta0 = 0.0;
  std::vector<double> beta;
  std::vector<double> alpha;  // empty = linear model

  [[nodiscard]] bool quadratic() const { return !alpha.empty(); }
  // beta + alpha * B for one atom's descriptors, written into `out`
  // (resized to num_b). Takes caller scratch so the per-atom force loop
  // performs no heap allocation.
  void effective_beta(std::span<const double> b,
                      std::vector<double>& out) const;
  // Energy of one atom given its descriptors.
  [[nodiscard]] double site_energy(std::span<const double> b) const;

  void save(const std::string& path) const;
  static SnapModel load(const std::string& path);
};

class SnapPotential final : public md::PairPotential {
 public:
  enum class Path { Adjoint, Baseline };

  explicit SnapPotential(SnapModel model, Path path = Path::Adjoint);

  [[nodiscard]] double cutoff() const override {
    return model_.params.rcut;
  }
  [[nodiscard]] const char* name() const override {
    return path_ == Path::Adjoint ? "snap/adjoint" : "snap/baseline";
  }

  // Threaded over atom chunks: worker 0 uses the member scratch (the
  // exact serial path), workers >= 1 get their own from the context's
  // per-thread cache — the per-atom U/Y/dU arrays are allocated once per
  // thread, never shared (the SnapIndex is, read-only). The adjoint path
  // runs each chunk in atom blocks of the lane width, one atom per lane:
  // ui, then Y (one sweep per block for linear models, Z -> B -> Y per
  // atom lane for quadratic ones), then dE for the block.
  using md::PairPotential::compute;
  md::EnergyVirial compute(const md::ComputeContext& ctx, md::System& sys,
                           const md::NeighborList& nl) override;

  [[nodiscard]] const SnapModel& model() const { return model_; }
  void set_path(Path path) { path_ = path; }
  [[nodiscard]] Path path() const { return path_; }

  // FLOPs executed by the last compute() call (analytic estimate).
  [[nodiscard]] double last_flops() const { return last_flops_; }

 private:
  // Per-thread kernel state, sized once so steady state never allocates.
  struct Scratch {
    explicit Scratch(const SnapModel& model);
    Bispectrum bi;
    // Per atom lane of a block: in-cutoff displacements, neighbor ids,
    // the displacement view compute_ui_block reads, and the energy.
    std::vector<std::vector<Vec3>> rij;
    std::vector<std::vector<int>> jlist;
    std::vector<Bispectrum::AtomNeighbors> atoms;
    std::vector<double> energy;
    std::vector<double> beta_eff;
    std::vector<Vec3> de;  // Baseline dE_i/dr_k results
  };

  SnapModel model_;
  Path path_;
  Scratch main_;
  double last_flops_ = 0.0;
  // Linear models: per-triple adjoint coefficients (SnapIndex::fold_beta),
  // folded once at construction so the per-atom loop skips the fold (the
  // quadratic path cannot hoist it — beta_eff depends on the atom's B).
  std::vector<double> y_coeff_;
};

}  // namespace ember::snap
