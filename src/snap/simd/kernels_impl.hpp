#pragma once

// The SNAP adjoint lane kernel: the only implementation of the
// Cayley-Klein mapping and of the production ui, yi and dei stages.
//
// Every kernel runs one block of `width` atoms, one atom per lane:
// map_block, ui_block and dei_block one neighbor slot of the block (lane
// l holds atom l's k-th neighbor), yi_block the whole Y sweep. The U
// stages produce the half column range 2*mb <= j (the other columns
// follow from U[j,ma,mb] = (-1)^(ma+mb) conj(U[j,j-ma,j-mb])); yi_block
// reads the full-range Utot that the caller expanded from it. The half
// recursion is closed: column mb of level j reads column mb-1 (or 0) of
// level j-1, and mb - 1 <= j/2 - 1 <= (j-1)/2.
//
// dei_block differentiates in reverse mode. Every half element f of
// level j is a sum over its (at most two) parents p in level j-1,
//   U_f = sum_p r_fp c_fp U_p,   r_fp = sqrt(p/q) table entry,
// with one column constant pair per (j, mb): the ma > 0 parent carries
// cu, the ma < j parent cd, and
//   mb > 0:  cu = a,         cd = b
//   mb = 0:  cu = -conj(b),  cd = conj(a).
// The force needs S = sum_e y[e] . U_e (x . z = Re(conj(x) z)) and its
// derivative along the mapping. Treat re and im parts as independent
// reals and write Lambda_e = dS/dRe U_e + i dS/dIm U_e. Then
// Lambda_e = y[e] + sum over e's children f of r_fe conj(c_fe) Lambda_f,
// complete for level j once level j+1 is swept, so one pass j = 2J .. 1
// scatters each child into its parents. The same pass accumulates, per
// column, the gradient with respect to the constants it used,
//   dS/dRe c += r Re(conj(Lambda_f) U_p)
//   dS/dIm c += r (Im Lambda_f Re U_p - Re Lambda_f Im U_p),
// and folds it into the gradient G with respect to (Re a, Im a, Re b,
// Im b) through the column's map above (mb = 0: dRe b -= dRe cu,
// dIm b += dIm cu, dRe a += dRe cd, dIm a -= dIm cd). The chain rule
// is then Sd = G . (dRe a/dx_d, dIm a/dx_d, dRe b/dx_d, dIm b/dx_d). No
// derivative plane is formed: the sweep reads U and one Lambda plane pair.
//
// Three translation units instantiate the templates, each with a wrapper
// V over its register type:
//
//   kernels_avx512.cpp  width 8  (__m512d)
//   kernels_avx2.cpp    width 4  (__m256d)
//   kernels_scalar.cpp  width 1  (double; the portable fallback)
//
// V provides:
//
//   static constexpr int width;            lanes per register
//   static V load(const double*);          aligned load
//   void store_to(double*) const;          aligned store
//   static V broadcast(double); zero();
//   static V neg(V);                       sign flip (-0 for +0)
//   static V sqrt(V);                      correctly rounded
//   static V fma(a, b, c)   = a * b + c
//   static V fmsub(a, b, c) = a * b - c
//   static V fnma(a, b, c)  = c - a * b
//   operators *, +, -, /  (element-wise, correctly rounded)
//
// Widths 8 and 4 use single-rounding FMA; width 1 uses a plain
// multiply-add. The TUs compile with -ffp-contract=off, so nothing else
// fuses. The U stages of the widths differ only by that rounding, well
// inside the 1e-12 parity budget against the Baseline (Z/dB) path.
// map_block uses no fma, so its output is bitwise the same at every
// width.
//
// This header contains no intrinsics (ember_lint simd-intrinsics-include
// confines those to the kernels_avx*.cpp TUs).

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "snap/simd/kernels.hpp"

namespace ember::snap::simd {

template <class V>
bool map_block_impl(const MapBlockArgs& g) {
  constexpr int kW = V::width;
  alignas(64) double lx[kW];
  alignas(64) double ly[kW];
  alignas(64) double lz[kW];
  for (int l = 0; l < kW; ++l) {
    lx[l] = g.rij[l].x;
    ly[l] = g.rij[l].y;
    lz[l] = g.rij[l].z;
  }
  const V x = V::load(lx);
  const V y = V::load(ly);
  const V z = V::load(lz);

  // theta0 = rfac0 pi (r - rmin0) / (rcut - rmin0),  z0 = r / tan(theta0)
  const V r = V::sqrt(x * x + y * y + z * z);
  const V rscale0 = V::broadcast(g.rfac0 * M_PI / (g.rcut - g.rmin0));
  const V rmin0 = V::broadcast(g.rmin0);
  const V arg = V::broadcast(M_PI) * (r - rmin0) /
                V::broadcast(g.rcut - g.rmin0);

  // The transcendental calls, one scalar libm call per lane.
  alignas(64) double lr[kW];
  alignas(64) double lt[kW];
  alignas(64) double lc[kW];
  alignas(64) double ls[kW] = {};  // read only with the switch on
  r.store_to(lr);
  ((r - rmin0) * rscale0).store_to(lt);
  arg.store_to(lc);
  bool in_range = true;
  for (int l = 0; l < kW; ++l) {
    in_range = in_range && lr[l] > 0.0 && lr[l] < g.rcut;
    lt[l] = std::tan(lt[l]);
    if (g.switch_flag) {
      ls[l] = std::sin(lc[l]);
      lc[l] = std::cos(lc[l]);
    }
  }
  const V z0 = r / V::load(lt);
  const V rr = r * r + z0 * z0;
  const V dz0dr = z0 / r - rscale0 * rr / r;
  const V r0inv = V::broadcast(1.0) / V::sqrt(rr);
  const V nr0inv = V::neg(r0inv);
  double* ck = g.ck;
  const auto put = [ck](int slot, V v) { v.store_to(ck + slot * kW); };

  // a = r0inv (z0 - i z),  b = r0inv (y - i x)
  put(kCkARe, r0inv * z0);
  put(kCkAIm, nr0inv * z);
  put(kCkBRe, r0inv * y);
  put(kCkBIm, nr0inv * x);

  // d(r0inv)/dx_d = -r0inv^3 (r + z0 dz0dr) x_d / r, and with the unit
  // vector u_d = x_d / r:
  //   da_d = (z0 - i z) dr0inv_d + r0inv dz0dr u_d  [- i r0inv at d = z]
  //   db_d = (y - i x) dr0inv_d  [+ r0inv at d = y, - i r0inv at d = x]
  // The `+ zero` terms are the zero parts of those complex sums; they
  // turn a -0 into +0 exactly as the complex arithmetic does.
  const V zero = V::zero();
  const V dr0invdr = nr0inv * r0inv * r0inv * (r + z0 * dz0dr) / r;
  const V r0dz0 = r0inv * dz0dr;
  const V xs[3] = {x, y, z};
  const V nx = V::neg(x);
  const V nz = V::neg(z);
  V u[3];
  for (int d = 0; d < 3; ++d) {
    const V dr0inv = dr0invdr * xs[d];
    u[d] = xs[d] / r;
    V dare = z0 * dr0inv + r0dz0 * u[d];
    V daim = nz * dr0inv + zero;
    V dbre = y * dr0inv;
    V dbim = nx * dr0inv;
    if (d == 0) {
      dbre = dbre + zero;
      dbim = dbim - r0inv;
    } else if (d == 1) {
      dbre = dbre + r0inv;
      dbim = dbim + zero;
    } else {
      dare = dare + zero;
      daim = daim - r0inv;
    }
    put(kCkDaRe0 + d, dare);
    put(kCkDaIm0 + d, daim);
    put(kCkDbRe0 + d, dbre);
    put(kCkDbIm0 + d, dbim);
  }

  // fc = (cos(arg) + 1) / 2 with its radial derivative along u; 1 and 0
  // with the switch off or inside rmin0.
  if (!g.switch_flag) {
    put(kCkFc, V::broadcast(1.0));
    for (int d = 0; d < 3; ++d) put(kCkDfc0 + d, zero);
    return in_range;
  }
  put(kCkFc, V::broadcast(0.5) * (V::load(lc) + V::broadcast(1.0)));
  const V dfcdr =
      V::broadcast(-0.5 * M_PI / (g.rcut - g.rmin0)) * V::load(ls);
  for (int d = 0; d < 3; ++d) put(kCkDfc0 + d, dfcdr * u[d]);
  for (int l = 0; l < kW; ++l) {
    if (lr[l] <= g.rmin0) {
      ck[kCkFc * kW + l] = 1.0;
      for (int d = 0; d < 3; ++d) ck[(kCkDfc0 + d) * kW + l] = 0.0;
    }
  }
  return in_range;
}

// The recursion, and with kAccumulate the fused Utot accumulation. Two
// instantiations rather than a runtime test in the element loop: the
// test slowed dei's replay (the recursion alone) by ~15 % at 2J=8.
template <class V, bool kAccumulate>
void ui_recursion(const UiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  double* ur = g.ur;
  double* ui = g.ui;
  double* acc_re = g.acc_re;
  double* acc_im = g.acc_im;
  // Dummy slots carry w = 0, so their recursion output adds an exact
  // zero to the atom's Utot.
  V wfc = V::zero();
  if constexpr (kAccumulate) {
    wfc = V::load(g.ck + kCkW * kW) * V::load(g.ck + kCkFc * kW);
  }

  // Element 0: bare U = 1 on every lane.
  const V one = V::broadcast(1.0);
  one.store_to(ur);
  V::zero().store_to(ui);
  if constexpr (kAccumulate) {
    V::fma(wfc, one, V::load(acc_re)).store_to(acc_re);
    V::fma(wfc, V::zero(), V::load(acc_im)).store_to(acc_im);
  }

  const V are = V::load(g.ck + kCkARe * kW);
  const V aim = V::load(g.ck + kCkAIm * kW);
  const V bre = V::load(g.ck + kCkBRe * kW);
  const V bim = V::load(g.ck + kCkBIm * kW);

  for (int j = 1; j <= tj; ++j) {
    const int blk = g.half_block[j];
    const int pblk = g.half_block[j - 1];
    const int hs = j / 2 + 1;
    const int phs = (j - 1) / 2 + 1;
    for (int mb = 0; mb <= j / 2; ++mb) {
      const bool zc = (mb == 0);
      // cu = zc ? -conj(b) : a ;  cd = zc ? conj(a) : b
      const V cur = zc ? V::neg(bre) : are;
      const V cui = zc ? bim : aim;
      const V cdr = zc ? are : bre;
      const V cdi = zc ? V::neg(aim) : bim;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        V vre = V::zero();
        V vim = V::zero();
        if (ma > 0) {
          const V r = V::broadcast(g.rootpq[ma * (tj + 1) + denom]);
          const int p = (pblk + (ma - 1) * phs + pcol) * kW;
          const V upre = V::load(ur + p);
          const V upim = V::load(ui + p);
          // v += r * (cu * up)
          vre = V::fma(r, V::fmsub(cur, upre, cui * upim), vre);
          vim = V::fma(r, V::fma(cur, upim, cui * upre), vim);
        }
        if (ma < j) {
          const V r = V::broadcast(g.rootpq[(j - ma) * (tj + 1) + denom]);
          const int p = (pblk + ma * phs + pcol) * kW;
          const V upre = V::load(ur + p);
          const V upim = V::load(ui + p);
          vre = V::fma(r, V::fmsub(cdr, upre, cdi * upim), vre);
          vim = V::fma(r, V::fma(cdr, upim, cdi * upre), vim);
        }
        const int e = (blk + ma * hs + mb) * kW;
        vre.store_to(ur + e);
        vim.store_to(ui + e);
        if constexpr (kAccumulate) {
          V::fma(wfc, vre, V::load(acc_re + e)).store_to(acc_re + e);
          V::fma(wfc, vim, V::load(acc_im + e)).store_to(acc_im + e);
        }
      }
    }
  }
}

template <class V>
void ui_block_impl(const UiBlockArgs& g) {
  if (g.acc_re == nullptr) {
    ui_recursion<V, false>(g);  // replay: the recursion alone
  } else {
    ui_recursion<V, true>(g);
  }
}

template <class V>
void dei_block_impl(const DeiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  const double* ck = g.ck;
  double* lr = g.lam_re;
  double* li = g.lam_im;

  // Seed: Lambda = each lane's own Y on every half element (element 0
  // included), and S0 = sum_e y[e] . u[e] in two chains (re and im).
  V s0r = V::zero();
  V s0i = V::zero();
  for (int e = 0; e < g.nh; ++e) {
    const int o = e * kW;
    const V yr = V::load(g.y_re + o);
    const V yi = V::load(g.y_im + o);
    yr.store_to(lr + o);
    yi.store_to(li + o);
    s0r = V::fma(yr, V::load(g.ur + o), s0r);
    s0i = V::fma(yi, V::load(g.ui + o), s0i);
  }

  const V are = V::load(ck + kCkARe * kW);
  const V aim = V::load(ck + kCkAIm * kW);
  const V bre = V::load(ck + kCkBRe * kW);
  const V bim = V::load(ck + kCkBIm * kW);
  // Gradient of S = sum_e y[e] . u[e] with respect to a and b.
  V gar = V::zero();
  V gai = V::zero();
  V gbr = V::zero();
  V gbi = V::zero();

  // Reverse sweep, j = 2J .. 1. Lambda of level j is complete once level
  // j + 1 has been swept; each child f scatters into its two parents and
  // adds its terms to the gradient of the column's constants (cu, cd).
  for (int j = tj; j >= 1; --j) {
    const int blk = g.half_block[j];
    const int pblk = g.half_block[j - 1];
    const int hs = j / 2 + 1;
    const int phs = (j - 1) / 2 + 1;
    for (int mb = 0; mb <= j / 2; ++mb) {
      const bool zc = (mb == 0);
      const V cur = zc ? V::neg(bre) : are;
      const V cui = zc ? bim : aim;
      const V cdr = zc ? are : bre;
      const V cdi = zc ? V::neg(aim) : bim;
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      V gur = V::zero();
      V gui = V::zero();
      V gdr = V::zero();
      V gdi = V::zero();
      // Lambda of parent row ma - 1 (column pcol), which children ma - 1
      // (through cd) and ma (through cu) both feed.
      V pr = V::zero();
      V pi = V::zero();
      for (int ma = 0; ma <= j; ++ma) {
        const int f = (blk + ma * hs + mb) * kW;
        const V fr = V::load(lr + f);
        const V fi = V::load(li + f);
        if (ma > 0) {
          const V r = V::broadcast(g.rootpq[ma * (tj + 1) + denom]);
          const int p = (pblk + (ma - 1) * phs + pcol) * kW;
          const V tr = r * fr;
          const V ti = r * fi;
          // Lambda_p += r conj(cu) Lambda_f; grad_cu += r conj(Lambda_f) u_p
          pr = V::fma(cur, tr, V::fma(cui, ti, pr));
          pi = V::fma(cur, ti, V::fnma(cui, tr, pi));
          const V upr = V::load(g.ur + p);
          const V upi = V::load(g.ui + p);
          gur = V::fma(tr, upr, V::fma(ti, upi, gur));
          gui = V::fma(ti, upr, V::fnma(tr, upi, gui));
          pr.store_to(lr + p);
          pi.store_to(li + p);
        }
        if (ma < j) {
          const V r = V::broadcast(g.rootpq[(j - ma) * (tj + 1) + denom]);
          const int p = (pblk + ma * phs + pcol) * kW;
          const V tr = r * fr;
          const V ti = r * fi;
          pr = V::fma(cdr, tr, V::fma(cdi, ti, V::load(lr + p)));
          pi = V::fma(cdr, ti, V::fnma(cdi, tr, V::load(li + p)));
          const V upr = V::load(g.ur + p);
          const V upi = V::load(g.ui + p);
          gdr = V::fma(tr, upr, V::fma(ti, upi, gdr));
          gdi = V::fma(ti, upr, V::fnma(tr, upi, gdi));
        }
      }
      // (cu, cd) = (a, b), or (-conj(b), conj(a)) in column 0.
      if (zc) {
        gar = gar + gdr;
        gai = gai - gdi;
        gbr = gbr - gur;
        gbi = gbi + gui;
      } else {
        gar = gar + gur;
        gai = gai + gui;
        gbr = gbr + gdr;
        gbi = gbi + gdi;
      }
    }
  }

  // Chain rule: Sd = dS/dx_d through (a, b), and by the product rule
  // d(w fc u) = w (dfc u + fc du) over the Y dot product,
  //   out_d = w * (dfc_d * S0 + fc * Sd).
  const V s0 = s0r + s0i;
  const V w = V::load(ck + kCkW * kW);
  const V fc = V::load(ck + kCkFc * kW);
  for (int d = 0; d < 3; ++d) {
    V sd = gar * V::load(ck + (kCkDaRe0 + d) * kW);
    sd = V::fma(gai, V::load(ck + (kCkDaIm0 + d) * kW), sd);
    sd = V::fma(gbr, V::load(ck + (kCkDbRe0 + d) * kW), sd);
    sd = V::fma(gbi, V::load(ck + (kCkDbIm0 + d) * kW), sd);
    const V dfc = V::load(ck + (kCkDfc0 + d) * kW);
    (w * V::fma(dfc, s0, fc * sd)).store_to(g.out + d * kW);
  }
}

// One work-list group with K outputs: each product U[u1] * U[u2] is
// formed once and added into K register accumulator pairs, and at the end
// of the group every output adds coeff[triple] * acc into its Y element.
// K is a template argument so the accumulator loops unroll completely and
// the accumulators stay in registers.
template <class V, int K>
void y_group(const YiBlockArgs& g, const YGroup& gr) {
  const SnapIndex& idx = *g.index;
  const int st = g.stride;
  const std::uint32_t* pu = idx.y_products().data();
  const double* c = idx.y_coeffs().data() + gr.coeff_begin;
  V ar[K];
  V ai[K];
#pragma GCC unroll 8
  for (int k = 0; k < K; ++k) {
    ar[k] = V::zero();
    ai[k] = V::zero();
  }
  for (int p = gr.product_begin; p < gr.product_end; ++p, c += K) {
    const int u1 = static_cast<int>(pu[p] & 0xffffu) * st;
    const int u2 = static_cast<int>(pu[p] >> 16) * st;
    const V a_re = V::load(g.uf_re + u1);
    const V a_im = V::load(g.uf_im + u1);
    const V b_re = V::load(g.uf_re + u2);
    const V b_im = V::load(g.uf_im + u2);
    const V pr = V::fmsub(a_re, b_re, a_im * b_im);
    const V pi = V::fma(a_re, b_im, a_im * b_re);
#pragma GCC unroll 8
    for (int k = 0; k < K; ++k) {
      const V ck = V::broadcast(c[k]);
      ar[k] = V::fma(ck, pr, ar[k]);
      ai[k] = V::fma(ck, pi, ai[k]);
    }
  }
  const YOutput* out = idx.y_outputs().data() + gr.output_begin;
#pragma GCC unroll 8
  for (int k = 0; k < K; ++k) {
    const V coeff = V::broadcast(g.coeff[out[k].triple]);
    double* yr = g.y_re + out[k].e * st;
    double* yi = g.y_im + out[k].e * st;
    V::fma(coeff, ar[k], V::load(yr)).store_to(yr);
    V::fma(coeff, ai[k], V::load(yi)).store_to(yi);
  }
}

template <class V, int... K>
constexpr auto y_group_table(std::integer_sequence<int, K...>) {
  return std::array{&y_group<V, K + 1>...};
}

template <class V>
void yi_block_impl(const YiBlockArgs& g) {
  const SnapIndex& idx = *g.index;
  const int st = g.stride;
  const int nh = idx.u_half_total();

  // Work-list sweep, one group at a time, into Y planes that start at
  // zero. Bounds, CG factors and vanishing terms were resolved when the
  // list was built, so the loops carry no branches; every U load is one
  // aligned vector of `width` atoms and every coefficient a broadcast.
  for (int e = 0; e < nh; ++e) {
    V::zero().store_to(g.y_re + e * st);
    V::zero().store_to(g.y_im + e * st);
  }
  static constexpr auto kGroup = y_group_table<V>(
      std::make_integer_sequence<int, kMaxYGroupOutputs>{});
  for (const YGroup& gr : idx.y_groups()) {
    kGroup[gr.output_end - gr.output_begin - 1](g, gr);
  }
  // Fold the contraction weight in, so the energy and force contractions
  // are plain dot products over the half range; zero-weight elements,
  // which no group writes, stay 0.
  const double* hw = idx.half_weights().data();
  for (int e = 0; e < nh; ++e) {
    const V w = V::broadcast(hw[e]);
    (w * V::load(g.y_re + e * st)).store_to(g.y_re + e * st);
    (w * V::load(g.y_im + e * st)).store_to(g.y_im + e * st);
  }
}

}  // namespace ember::snap::simd
