#pragma once

// Per-atom SNAP bispectrum engine.
//
// This class owns the flattened U/Z/Y/B scratch arrays and exposes the
// computation stages exactly as the paper's Listings 1/5 name them, in
// two execution paths:
//
//   baseline path (Listing 1):
//     compute_ui -> compute_zi -> compute_bi          (energy/descriptors)
//                 \-> compute_deidrj_baseline: per neighbor
//                     compute_duidrj -> compute_dbidrj -> sum beta dB
//     Z storage is O(J^5); dB is O(J^5) work per neighbor.
//
//   adjoint path (Listing 5, the paper's §IV refactorization):
//     compute_ui -> compute_yi(beta) -> compute_deidrj_all
//     Y storage is O(J^3); force is O(J^3) work per neighbor.
//
// The adjoint stages run one kernel, the lane kernel of
// src/snap/simd/kernels_impl.hpp, over the half column range 2*mb <= j
// (the rest follows from U[j,ma,mb] = (-1)^(ma+mb) conj(U[j,j-ma,j-mb]))
// in split re/im planes:
//
//   ui   per atom, one neighbor per lane: the Cayley-Klein mapping
//        (map_block), then the U recursion with the weighted Utot sum
//        fused into it, expanded to the full range in the atom's lane.
//        Only each neighbor's Cayley-Klein mapping is kept for dE.
//   yi   one atom per lane: the flat work list of SnapIndex swept over a
//        block of up to lane-width atoms (compute_yi_block).
//   dei  per atom, one neighbor per lane: replays the U recursion from the
//        kept mappings, then one reverse (adjoint) sweep carries Y down
//        the recursion to dE/da, dE/db, and the chain rule through the
//        mapping's da/db gives the force. No dU is formed.
//
// The lane width is chosen at construction from the CPU: 8 (AVX-512),
// 4 (AVX2) or 1 (portable scalar), and the EMBER_SIMD environment
// variable can only lower it (see simd/dispatch.hpp).
//
// Atom blocks. SnapPotential runs compute_ui(rij, wj, lane) for each atom
// of a block, one compute_yi_block, then energy_from_yi and
// compute_deidrj_all per lane. An atom's results depend only on its own
// neighbors, never on its lane or block mates. The per-atom calls
// (compute_ui(rij, wj), compute_yi[_coeffs], lane 0) are the one-atom
// case of the same path, with Y at width 1; compute_ui(rij, wj) also
// fills the full-range utot() the Z/B stages read.
//
// The baseline path keeps its own full-range U recursion
// (compute_duidrj) and is the independent oracle the adjoint kernel is
// tested against (<= 1e-12 per force component,
// tests/snap/test_lane_kernel.cpp).
//
// The same instance can be reused across atoms (buffers are reset by
// compute_ui). Instances are NOT thread-safe; create one per thread. They
// all read the one immutable SnapIndex::shared of their 2J.

#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/vec3.hpp"
#include "snap/cplx.hpp"
#include "snap/indexing.hpp"
#include "snap/simd/dispatch.hpp"
#include "snap/simd/kernels.hpp"
#include "snap/wigner.hpp"

namespace ember::snap {

struct SnapParams {
  int twojmax = 8;        // 2J; paper uses 8 (55 components) and 14 (204)
  double rcut = 4.7;      // neighbor cutoff [A]
  double rmin0 = 0.0;     // inner radius of the angular mapping [A]
  double rfac0 = 0.99363; // fraction of pi covered at r = rcut
  double wself = 1.0;     // self-contribution weight
  bool switch_flag = true; // apply the smooth cutoff fc(r)
  bool bzero_flag = false; // subtract the isolated-atom bispectrum
};

// Derivative of the weighted, switched U contribution of one neighbor:
// d(w * fc(r) * u)/d{x,y,z}.
struct DU {
  Cplx d[3];
};

class Bispectrum {
 public:
  explicit Bispectrum(const SnapParams& params);

  [[nodiscard]] const SnapParams& params() const { return params_; }
  [[nodiscard]] const SnapIndex& index() const { return idx_; }
  [[nodiscard]] int num_b() const { return idx_.num_b(); }

  // ---- stage kernels ----

  // Accumulate Utot over neighbors (positions relative to the central
  // atom, all with |rij| < rcut) plus the self term, with the lane
  // kernel, into atom lane `lane` (< lane width) of the Y block. Keeps the
  // neighbors' Cayley-Klein mappings for compute_deidrj_all(de, lane).
  void compute_ui(std::span<const Vec3> rij, std::span<const double> wj,
                  int lane);
  // One atom: lane 0, plus the full-range utot() mirror.
  void compute_ui(std::span<const Vec3> rij, std::span<const double> wj);

  // Baseline: compute and store every coupled Z matrix (O(J^5) memory).
  void compute_zi();

  // Bispectrum components B_l for the canonical triples; requires
  // compute_zi. Subtracts bzero when enabled.
  void compute_bi();

  // Adjoint: accumulate Y = sum beta * Z on the fly (O(J^3) memory) for
  // the atom of the last compute_ui (lane 0), by the width-1 work-list
  // sweep; beta.size() must equal num_b().
  void compute_yi(std::span<const double> beta);

  // Same accumulation from precomputed per-triple coefficients
  // SnapIndex::fold_beta(beta) (coeffs.size() must equal
  // z_triples().size()). Lets linear models hoist the coefficient fold
  // out of the per-atom loop entirely.
  void compute_yi_coeffs(std::span<const double> coeffs);

  // Y for every atom lane of the block at once (one atom per lane), from
  // the lanes' compute_ui(rij, wj, lane). Lanes not filled since the last
  // block carry stale values; their Y is not meaningful.
  void compute_yi_block(std::span<const double> coeffs);

  // Baseline: per-neighbor derivative d(w fc u)/dr for the given
  // displacement, from the full-range recursion run from scratch; fills
  // the dU buffer compute_dbidrj contracts.
  void compute_duidrj(const Vec3& rij, double wj);

  // Adjoint: blocked dE pass over every neighbor of atom lane `lane`:
  // de[k] = dE_i/dr_k = Y : conj(dU_k). Requires a Y stage since that
  // lane's compute_ui. Each block of lane-width neighbors replays the U
  // recursion, then one reverse sweep over it back-propagates Y to the
  // gradient with respect to the Cayley-Klein a, b, contracted with
  // da/db and the switching function.
  void compute_deidrj_all(std::span<Vec3> de, int lane = 0);

  // ISA the lane kernel dispatched to at construction, and its width
  // (neighbors per ui/dei block, atoms per Y block).
  [[nodiscard]] simd::SimdIsa simd_isa() const { return simd_isa_; }
  [[nodiscard]] int lane_width() const { return simd::lane_width(simd_isa_); }

  // Baseline force kernel: dB_l/dr_k for every canonical triple
  // (requires compute_zi and compute_duidrj).
  void compute_dbidrj();

  // Baseline dE pass over every neighbor of the atom of the last
  // compute_zi: de[k] = sum_l beta[l] dB_l/dr_k, each neighbor by
  // compute_duidrj(rij[k], 1) and compute_dbidrj. beta.size() must equal
  // num_b(). Allocates nothing beyond compute_duidrj's first-use sizing.
  void compute_deidrj_baseline(std::span<const Vec3> rij,
                               std::span<const double> beta,
                               std::span<Vec3> de);

  // ---- results ----
  [[nodiscard]] std::span<const double> blist() const { return blist_; }
  [[nodiscard]] std::span<const Vec3> dblist() const { return dblist_; }
  [[nodiscard]] std::span<const Cplx> utot() const { return utot_; }
  [[nodiscard]] std::span<const Cplx> zlist() const { return zlist_; }
  [[nodiscard]] std::span<const DU> dulist() const { return dulist_; }
  // Element e of atom lane `lane`'s weight-folded half-range Y.
  [[nodiscard]] Cplx yi_half(int e, int lane = 0) const {
    const std::size_t k = static_cast<std::size_t>(e) * ops_.width + lane;
    return {y_re_[k], y_im_[k]};
  }

  // Energy of the atom given linear SNAP coefficients (beta0 + beta . B);
  // requires compute_bi.
  [[nodiscard]] double energy(double beta0,
                              std::span<const double> beta) const;

  // Energy via the adjoint identity sum_j Y_j : conj(U_j) = 3 sum beta.B
  // (every B component appears through its three U-slot dependency paths),
  // summed over the weight-folded half planes of atom lane `lane`;
  // requires a Y stage with the same beta. Lets the adjoint path skip Z
  // storage entirely. beta is needed only for the bzero correction.
  [[nodiscard]] double energy_from_yi(double beta0,
                                      std::span<const double> beta,
                                      int lane = 0) const;

  // ---- analytic FLOP estimates (double-precision mul+add counted as 2) --
  // The adjoint counts follow the lane kernel: the halved column range,
  // the Y work-list products, coefficients and outputs, and the dE pass
  // (replayed U recursion plus the reverse sweep).
  // Padded lanes are not counted. The atom-independent counts are fixed
  // at construction, so every call is O(1).
  [[nodiscard]] double flops_ui(int nnbor) const;
  [[nodiscard]] double flops_zi() const { return flops_.zi; }
  [[nodiscard]] double flops_bi() const { return flops_.bi; }
  [[nodiscard]] double flops_yi() const { return flops_.yi; }
  [[nodiscard]] double flops_duidrj() const;   // per neighbor, adjoint path
  [[nodiscard]] double flops_duidrj_full() const;  // full-range recursion
  [[nodiscard]] double flops_deidrj() const;   // per neighbor
  [[nodiscard]] double flops_dbidrj() const { return flops_.dbidrj; }
  // Total per-atom FLOPs of the adjoint path with nnbor neighbors.
  [[nodiscard]] double flops_adjoint_atom(int nnbor) const;

 private:
  // Baseline single-neighbor full-range U recursion into ulist_, with the
  // derivative recursion into dulist_raw_ (du of the bare u, before the
  // fc/weight product rule).
  void u_recursion(const CayleyKlein& ck);

  // z-matrix element (row ma, col mb) of coupling triple t, from utot_.
  [[nodiscard]] Cplx z_element(const ZTriple& t, int ma, int mb) const;

  // ui_block arguments for one neighbor block's slots `ck`, recursion
  // into ucache_*; acc_* = nullptr runs the recursion alone.
  simd::UiBlockArgs ui_args(const double* ck, double* acc_re, double* acc_im);

  // compute_bi with an explicit bzero choice; the constructor uses it to
  // measure the isolated-atom reference without mutating params_.
  void compute_bi_impl(bool subtract_bzero);

  const SnapParams params_;
  const SnapIndex& idx_;  // SnapIndex::shared(params.twojmax)
  std::vector<double> rootpq_;  // rootpq_[p*(tj+1)+q] = sqrt(p/q)

  std::vector<Cplx> utot_;       // full-range mirror of Utot lane 0
  std::vector<Cplx> ulist_;      // per-neighbor scratch (baseline)
  std::vector<DU> dulist_raw_;   // per-neighbor du (bare u)
  std::vector<DU> dulist_;       // d(w fc u)/dr
  std::vector<Cplx> zlist_;
  std::vector<double> blist_;
  std::vector<Vec3> dblist_;
  std::vector<double> bzero_;
  bool have_z_ = false;

  struct {
    double zi = 0.0, bi = 0.0, yi = 0.0, dbidrj = 0.0;
  } flops_;  // atom-independent counts, fixed at construction

  // ---- lane-kernel state (half layout, SoA planes) ----
  // All planes are 64-byte aligned (aligned_vector) so the vector widths
  // use aligned loads. Per atom lane: the neighbors' lane-packed
  // Cayley-Klein slots (nblock x kCkSlots x width) and neighbor count.
  simd::SimdIsa simd_isa_;
  const simd::SimdOps& ops_;
  std::vector<aligned_vector<double>> atom_ck_;
  std::vector<int> atom_nnbor_;
  aligned_vector<double> ucache_re_;    // bare U of one neighbor block,
  aligned_vector<double> ucache_im_;    //   nh x width
  aligned_vector<double> ublk_re_;      // Utot, nh x width atom lanes
  aligned_vector<double> ublk_im_;
  aligned_vector<double> ufull_re_;     // full-range Utot, u_total x width
  aligned_vector<double> ufull_im_;
  aligned_vector<double> y_re_;         // Y, nh x width atom lanes
  aligned_vector<double> y_im_;         //   (weight-folded)
  std::vector<double> yi_coeff_scratch_;  // per-triple beta fold
  aligned_vector<double> lane_acc_re_;  // lane-interleaved Utot accum
  aligned_vector<double> lane_acc_im_;
  aligned_vector<double> lane_lam_re_;  // lane-interleaved adjoint
  aligned_vector<double> lane_lam_im_;  //   dS0/dU scratch
  aligned_vector<double> lane_out_;     // 3 x width force lanes
};

}  // namespace ember::snap
