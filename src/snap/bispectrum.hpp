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
//     compute_ui_block -> compute_yi_block -> compute_deidrj_block
//     Y storage is O(J^3); force is O(J^3) work per neighbor.
//
// The adjoint stages run one kernel, the lane kernel of
// src/snap/simd/kernels_impl.hpp, over the half column range 2*mb <= j
// (the rest follows from U[j,ma,mb] = (-1)^(ma+mb) conj(U[j,j-ma,j-mb]))
// in split re/im planes, over a block of up to lane-width atoms with one
// atom per lane:
//
//   ui   per neighbor slot k of the block, lane l maps atom l's k-th
//        neighbor (map_block), then the U recursion adds w fc U straight
//        into lane l's Utot. One lane-wide pass per block adds wself on
//        the diagonal and expands Utot to the full range. Only the
//        slots' Cayley-Klein mappings are kept for dE.
//   yi   the grouped work list of SnapIndex swept over the block's Utot
//        (compute_yi_block).
//   dei  replays the slots: the U recursion from the kept mappings, then
//        one reverse (adjoint) sweep carries each lane's own Y down the
//        recursion to dE/da, dE/db, and the chain rule through the
//        mapping's da/db gives dE for (atom l, neighbor k). No dU is
//        formed.
//
// A lane short of the block's largest neighbor count gets a dummy slot
// of weight 0, which adds an exact zero, so an atom's results depend only
// on its own neighbors, never on its lane or block mates. The lane width
// is chosen at construction from the CPU: 8 (AVX-512), 4 (AVX2) or 1
// (portable scalar), and the EMBER_SIMD environment variable can only
// lower it (see simd/dispatch.hpp).
//
// The one-atom calls compute_ui(rij, wj), compute_yi[_coeffs] and
// compute_deidrj_all(de) are a block of one atom on lane 0, with Y at
// width 1; compute_ui(rij, wj) also fills the full-range utot() the Z/B
// stages read. Quadratic models run Z, B and the width-1 Y per atom lane
// of a block (compute_zi(lane), compute_yi(beta, lane)).
//
// The baseline path keeps its own full-range U recursion
// (compute_duidrj) and is the independent oracle the adjoint kernel is
// tested against (<= 1e-12 per force component,
// tests/snap/test_lane_kernel.cpp).
//
// The same instance can be reused across blocks (buffers are reset by
// compute_ui_block). Instances are NOT thread-safe; create one per
// thread. They all read the one immutable SnapIndex::shared of their 2J.

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

  // One atom's neighbors: displacements from the central atom, all with
  // |rij| < rcut, and their weights (empty: all 1).
  struct AtomNeighbors {
    std::span<const Vec3> rij;
    std::span<const double> wj;
  };

  // Utot of a block of up to lane-width atoms, atom l on lane l: the
  // weighted sum over its neighbors plus the self term. Lanes without an
  // atom get the isolated-atom Utot. Keeps the neighbors' Cayley-Klein
  // mappings for compute_deidrj_block.
  void compute_ui_block(std::span<const AtomNeighbors> atoms);
  // One atom: a block of one, plus the full-range utot() of lane 0.
  void compute_ui(std::span<const Vec3> rij, std::span<const double> wj);

  // Baseline: compute and store every coupled Z matrix (O(J^5) memory) of
  // atom lane `lane`, whose full-range Utot it copies into utot().
  void compute_zi(int lane = 0);

  // Bispectrum components B_l for the canonical triples; requires
  // compute_zi. Subtracts bzero when enabled.
  void compute_bi();

  // Adjoint: accumulate Y = sum beta * Z on the fly (O(J^3) memory) for
  // atom lane `lane` of the last compute_ui_block, by the width-1
  // work-list sweep; beta.size() must equal num_b().
  void compute_yi(std::span<const double> beta, int lane = 0);

  // Same accumulation from precomputed per-triple coefficients
  // SnapIndex::fold_beta(beta) (coeffs.size() must equal
  // z_triples().size()). Lets linear models hoist the coefficient fold
  // out of the per-atom loop entirely.
  void compute_yi_coeffs(std::span<const double> coeffs, int lane = 0);

  // Y for every atom lane of the block at once (one atom per lane).
  void compute_yi_block(std::span<const double> coeffs);

  // Baseline: per-neighbor derivative d(w fc u)/dr for the given
  // displacement, from the full-range recursion run from scratch; fills
  // the dU buffer compute_dbidrj contracts.
  void compute_duidrj(const Vec3& rij, double wj);

  // Adjoint: dE for every (atom lane, neighbor) pair of the block,
  // dE_i/dr_k = Y : conj(dU_k), read back by deidrj. Requires a Y stage
  // of every atom lane since compute_ui_block. Each neighbor slot replays
  // the U recursion, then one reverse sweep over it back-propagates each
  // lane's Y to the gradient with respect to the Cayley-Klein a, b,
  // contracted with da/db and the switching function.
  void compute_deidrj_block();
  // One atom: compute_deidrj_block, then lane 0's dE into de[k].
  void compute_deidrj_all(std::span<Vec3> de);
  // dE_i/dr_k of neighbor k of atom lane `lane`, from the last
  // compute_deidrj_block (k below that atom's neighbor count).
  [[nodiscard]] Vec3 deidrj(int lane, std::size_t k) const {
    const double* o = de_.data() + 3 * ops_.width * k + lane;
    return {o[0], o[ops_.width], o[2 * ops_.width]};
  }

  // ISA the lane kernel dispatched to at construction, and its width
  // (atoms per block).
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
  // summed over the weight-folded half planes in one lane-wide pass:
  // e[l] for the first e.size() atom lanes. Requires a Y stage with the
  // same beta. Lets the adjoint path skip Z storage entirely. beta is
  // needed only for the bzero correction.
  void energy_from_yi(double beta0, std::span<const double> beta,
                      std::span<double> e) const;

  // ---- analytic FLOP estimates (double-precision mul+add counted as 2) --
  // The adjoint counts follow the lane kernel: the halved column range,
  // the Y work-list products, coefficients and outputs, and the dE pass
  // (replayed U recursion plus the reverse sweep).
  // Dummy slots are not counted. The atom-independent counts are fixed
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

  // ui_block arguments for one neighbor slot's `ck`, recursion into
  // ucache_*; acc_* = nullptr runs the recursion alone.
  simd::UiBlockArgs ui_args(const double* ck, double* acc_re, double* acc_im);

  // compute_bi with an explicit bzero choice; the constructor uses it to
  // measure the isolated-atom reference without mutating params_.
  void compute_bi_impl(bool subtract_bzero);

  const SnapParams params_;
  const SnapIndex& idx_;  // SnapIndex::shared(params.twojmax)
  std::vector<double> rootpq_;  // rootpq_[p*(tj+1)+q] = sqrt(p/q)

  std::vector<Cplx> utot_;       // full-range Utot of one atom lane
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
  // use aligned loads; element e of atom lane l sits at e * width + l.
  simd::SimdIsa simd_isa_;
  const simd::SimdOps& ops_;
  std::size_t nslots_ = 0;              // the block's largest neighbor count
  std::vector<Vec3> slot_rij_;          // one neighbor slot, width lanes
  aligned_vector<double> ck_;           // Cayley-Klein slots, nslots_ x
                                        //   kCkSlots x width
  aligned_vector<double> de_;           // dE, nslots_ x 3 x width
  aligned_vector<double> ucache_re_;    // bare U of one neighbor slot,
  aligned_vector<double> ucache_im_;    //   nh x width
  aligned_vector<double> ublk_re_;      // Utot, nh x width
  aligned_vector<double> ublk_im_;
  aligned_vector<double> ufull_re_;     // full-range Utot, u_total x width
  aligned_vector<double> ufull_im_;
  aligned_vector<double> y_re_;         // Y, nh x width (weight-folded)
  aligned_vector<double> y_im_;
  aligned_vector<double> lam_re_;       // adjoint dS0/dU scratch,
  aligned_vector<double> lam_im_;       //   nh x width
  std::vector<double> yi_coeff_scratch_;  // per-triple beta fold
};

}  // namespace ember::snap
