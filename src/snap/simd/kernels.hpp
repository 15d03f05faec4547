#pragma once

// Argument blocks and the per-ISA kernel table of the SNAP lane kernel.
//
// Four kernels share one lane layout with one kind of lane: lane l holds
// atom l of a block of up to `width` atoms.
//
//   map_block, ui_block, dei_block
//                        neighbor slot k of the block: lane l maps atom
//                        l's k-th neighbor, so U and dE run per (atom,
//                        neighbor) pair and Utot sums straight into the
//                        atom's own lane
//   yi_block             Y does the same work for every atom, so the work
//                        list and its coefficients are broadcast and only
//                        Utot differs
//
// Every per-lane plane is *lane-interleaved*: the value of element e for
// lane l lives at plane[e * width + l], so one aligned vector load at
// offset e * width reads element e of every lane. Planes are 64-byte
// aligned (common/aligned.hpp) and lane offsets are width multiples, so
// every access is aligned.
//
// Padding. An atom with fewer neighbors than the block's largest count,
// and a lane with no atom, gets a finite dummy displacement with weight
// 0 in the slots it lacks: its recursion stays finite and its w fc U
// term adds an exact zero, so its Utot is that of its own neighbors, and
// the dummy force outputs are never read. No lane reads another lane's
// data, so a lane's result does not depend on its position or on its
// block mates.
//
// The structs below are plain pointers + sizes so this header needs no
// intrinsics. The implementations are instantiated in kernels_avx512.cpp
// (width 8) and kernels_avx2.cpp (width 4) — the only TUs allowed to
// include immintrin.h — and kernels_scalar.cpp (width 1, portable C++).
// All three compile with -ffp-contract=off (src/snap/CMakeLists.txt):
// every FMA the kernels want is an explicit V::fma, and a contracted
// multiply-add in the mapping would make the widths disagree.

#include "common/vec3.hpp"
#include "snap/indexing.hpp"

namespace ember::snap::simd {

// Lane-packed Cayley-Klein slots of one neighbor slot k of a block: slot
// s of lane l (atom l's k-th neighbor) lives at ck[s * width + l].
// da/db derivative slots are indexed by Cartesian dim.
inline constexpr int kCkARe = 0;
inline constexpr int kCkAIm = 1;
inline constexpr int kCkBRe = 2;
inline constexpr int kCkBIm = 3;
inline constexpr int kCkDaRe0 = 4;   // .. kCkDaRe0 + d, d = 0..2
inline constexpr int kCkDaIm0 = 7;
inline constexpr int kCkDbRe0 = 10;
inline constexpr int kCkDbIm0 = 13;
inline constexpr int kCkFc = 16;
inline constexpr int kCkDfc0 = 17;   // .. kCkDfc0 + d
inline constexpr int kCkW = 20;      // bare neighbor weight wj
inline constexpr int kCkSlots = 21;

// Cayley-Klein mapping of one displacement per lane onto the 3-sphere
// (LAMMPS convention, see map_to_sphere in snap/wigner.hpp, which is the
// width-1 call of this kernel). Fills every slot but kCkW: a, b, their
// Cartesian derivatives, fc and dfc. Each lane's libm tan, cos and sin
// are scalar calls; the rest of the algebra runs lane-wide in the same
// operation order at every width, so all widths give the same bits.
// Returns false if some lane's |rij| lies outside (0, rcut); the slots
// are then meaningless.
struct MapBlockArgs {
  double rcut = 0.0;
  double rfac0 = 0.0;
  double rmin0 = 0.0;
  bool switch_flag = true;
  const Vec3* rij = nullptr;        // one displacement per lane, width
  double* ck = nullptr;             // kCkSlots * width lane-packed slots out
};

// Bare-U half-range recursion for one neighbor slot block, fused with the
// weighted Utot accumulation: each element of the bare per-neighbor U
// planes is stored and, in the same loop, w * fc * U is added into the
// atom lanes' half-range Utot. With acc_re == nullptr it runs the
// recursion alone: the dE pass replays it to rebuild the bare U that
// dei_block's reverse sweep reads.
struct UiBlockArgs {
  int twojmax = 0;
  const int* half_block = nullptr;  // u_half_block(j) offsets, twojmax+1
  int nh = 0;                       // u_half_total()
  const double* rootpq = nullptr;   // (twojmax+1)^2 sqrt(p/q) table
  const double* ck = nullptr;       // kCkSlots * width lane-packed slots
  double* ur = nullptr;             // bare-U planes out, nh * width each
  double* ui = nullptr;
  double* acc_re = nullptr;         // atom lanes' Utot, += w * fc * u
  double* acc_im = nullptr;         //   (nullptr: recursion only)
};

// Adjoint Y sweep for one block of atoms, one atom per lane. The grouped
// work list of SnapIndex (y_groups, see YGroup) forms each product
// U[u1] * U[u2] of a group once and accumulates it into every output of
// the group, then
//   Y[e] = half_weight[e] * sum_outputs(e) coeff[triple] * acc
// from the full-range Utot into the half-range Y planes. Every half
// element is written; zero-weight ones get 0.
struct YiBlockArgs {
  const SnapIndex* index = nullptr; // work list, half weights
  int stride = 0;                   // element e of lane l at e * stride + l
                                    //   (>= width; == width for vectors)
  const double* uf_re = nullptr;    // full-range Utot in
  const double* uf_im = nullptr;
  const double* coeff = nullptr;    // per-triple coefficients
  double* y_re = nullptr;           // half-range Y out, weight-folded
  double* y_im = nullptr;
};

// Reverse-mode dE for one neighbor slot block: for each lane l and
// Cartesian dim d,
//   out[d * width + l] = w_l * (dfc_dl * S0_l + fc_l * Sd_l)
// with S0 = sum_e y[e] . u[e] over the (weight-folded) half-range Y
// planes and Sd = dS0/dx_d, taken by one adjoint sweep over the bare U
// planes (ur/ui, from ui_block's replay of the block) that back-propagates
// Y down the recursion into the gradient of S0 with respect to the
// Cayley-Klein a and b, then the chain rule through da/db. The product
// rule d(w fc u) = w (dfc u + fc du) is distributed over the Y dot product.
struct DeiBlockArgs {
  int twojmax = 0;
  const int* half_block = nullptr;
  int nh = 0;
  const double* rootpq = nullptr;
  const double* ck = nullptr;       // kCkSlots * width lane-packed slots
  const double* ur = nullptr;       // bare-U planes of this block
  const double* ui = nullptr;       //   (ui_block's recursion output)
  double* lam_re = nullptr;         // adjoint scratch planes dS0/dU,
  double* lam_im = nullptr;         //   nh * width each
  const double* y_re = nullptr;     // half-range Y of the atom lanes,
  const double* y_im = nullptr;     //   lane-interleaved, pre-folded
                                    //   with half_weights
  double* out = nullptr;            // 3 * width: dim-major force lanes
};

struct SimdOps {
  int width = 1;  // lanes per block
  bool (*map_block)(const MapBlockArgs&) = nullptr;
  void (*ui_block)(const UiBlockArgs&) = nullptr;
  void (*dei_block)(const DeiBlockArgs&) = nullptr;
  void (*yi_block)(const YiBlockArgs&) = nullptr;
};

// Defined in the per-ISA TUs. A vector table is only compiled when the
// toolchain supports its flags (EMBER_SNAP_HAVE_AVX2,
// EMBER_SNAP_HAVE_AVX512); the scalar table always is.
[[nodiscard]] const SimdOps& scalar_ops();
[[nodiscard]] const SimdOps& avx2_ops();
[[nodiscard]] const SimdOps& avx512_ops();

}  // namespace ember::snap::simd
