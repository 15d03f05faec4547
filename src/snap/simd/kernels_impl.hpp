#pragma once

// The SNAP adjoint lane kernel: the only implementation of the
// production ui, yi and dei stages.
//
// ui_block and dei_block run one block of `width` neighbors of one atom,
// one neighbor per lane; yi_block runs one block of `width` atoms, one
// atom per lane. All three produce the half column range 2*mb <= j
// (the other columns follow from U[j,ma,mb] = (-1)^(ma+mb)
// conj(U[j,j-ma,j-mb])); yi_block reads the full-range Utot that the
// caller expanded from it. The half recursion is closed: column mb of
// level j reads column mb-1 (or 0) of level j-1, and
// mb - 1 <= j/2 - 1 <= (j-1)/2.
//
// Two translation units instantiate the templates, each with a wrapper
// V over its register type:
//
//   kernels_avx2.cpp    width 4  (__m256d)
//   kernels_scalar.cpp  width 1  (double; the portable fallback)
//
// V provides:
//
//   static constexpr int width;            lanes per register
//   static V load(const double*);          aligned load
//   void store_to(double*) const;          aligned store
//   static V broadcast(double); zero();
//   static V neg(V);
//   static V fma(a, b, c)   = a * b + c
//   static V fmsub(a, b, c) = a * b - c
//   operators *, +, -  (element-wise)
//
// Width 4 uses single-rounding FMA; width 1 uses a plain multiply-add.
// Results of the widths differ only by that rounding and
// by the lane order of the Utot sum, well inside the 1e-12 parity budget
// against the Baseline (Z/dB) path.
//
// This header contains no intrinsics (ember_lint simd-intrinsics-include
// confines those to the kernels_avx*.cpp TUs).

#include "snap/simd/kernels.hpp"

namespace ember::snap::simd {

template <class V>
void ui_block_impl(const UiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  double* ur = g.ur;
  double* ui = g.ui;

  // Element 0: bare U = 1 on every lane.
  V::broadcast(1.0).store_to(ur);
  V::zero().store_to(ui);

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
      }
    }
  }

  if (g.acc_re == nullptr) return;  // replay: the recursion alone

  // Weighted Utot accumulation: acc += w * fc * u. Padded lanes carry
  // w = 0, so their recursion output never reaches the accumulator.
  const V w = V::load(g.ck + kCkW * kW) * V::load(g.ck + kCkFc * kW);
  for (int e = 0; e < g.nh; ++e) {
    const int o = e * kW;
    V::fma(w, V::load(ur + o), V::load(g.acc_re + o)).store_to(g.acc_re + o);
    V::fma(w, V::load(ui + o), V::load(g.acc_im + o)).store_to(g.acc_im + o);
  }
}

template <class V>
void dei_block_impl(const DeiBlockArgs& g) {
  constexpr int kW = V::width;
  const int tj = g.twojmax;
  const double* ck = g.ck;

  const V are = V::load(ck + kCkARe * kW);
  const V aim = V::load(ck + kCkAIm * kW);
  const V bre = V::load(ck + kCkBRe * kW);
  const V bim = V::load(ck + kCkBIm * kW);
  V dar[3];
  V dai[3];
  V dbr[3];
  V dbi[3];
  for (int d = 0; d < 3; ++d) {
    dar[d] = V::load(ck + (kCkDaRe0 + d) * kW);
    dai[d] = V::load(ck + (kCkDaIm0 + d) * kW);
    dbr[d] = V::load(ck + (kCkDbRe0 + d) * kW);
    dbi[d] = V::load(ck + (kCkDbIm0 + d) * kW);
  }

  // Element 0 of the bare derivative is zero on every dim and lane.
  for (int d = 0; d < 3; ++d) {
    V::zero().store_to(g.du_re[d]);
    V::zero().store_to(g.du_im[d]);
  }

  // Derivative-only recursion over the half range; the bare U values the
  // chain rule needs come from ui_block's recursion over the same block.
  for (int j = 1; j <= tj; ++j) {
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
      V dcur[3];
      V dcui[3];
      V dcdr[3];
      V dcdi[3];
      for (int d = 0; d < 3; ++d) {
        // dcu = zc ? -conj(db) : da ;  dcd = zc ? conj(da) : db
        dcur[d] = zc ? V::neg(dbr[d]) : dar[d];
        dcui[d] = zc ? dbi[d] : dai[d];
        dcdr[d] = zc ? dar[d] : dbr[d];
        dcdi[d] = zc ? V::neg(dai[d]) : dbi[d];
      }
      const int pcol = zc ? 0 : mb - 1;
      const int denom = zc ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        V dvre[3] = {V::zero(), V::zero(), V::zero()};
        V dvim[3] = {V::zero(), V::zero(), V::zero()};
        if (ma > 0) {
          const V r = V::broadcast(g.rootpq[ma * (tj + 1) + denom]);
          const int p = (pblk + (ma - 1) * phs + pcol) * kW;
          const V upre = V::load(g.ur + p);
          const V upim = V::load(g.ui + p);
          for (int d = 0; d < 3; ++d) {
            const V dre = V::load(g.du_re[d] + p);
            const V dim = V::load(g.du_im[d] + p);
            // dv += r * (dcu * up + cu * dup)
            const V tre = V::fmsub(dcur[d], upre, dcui[d] * upim) +
                          V::fmsub(cur, dre, cui * dim);
            const V tim = V::fma(dcur[d], upim, dcui[d] * upre) +
                          V::fma(cur, dim, cui * dre);
            dvre[d] = V::fma(r, tre, dvre[d]);
            dvim[d] = V::fma(r, tim, dvim[d]);
          }
        }
        if (ma < j) {
          const V r = V::broadcast(g.rootpq[(j - ma) * (tj + 1) + denom]);
          const int p = (pblk + ma * phs + pcol) * kW;
          const V upre = V::load(g.ur + p);
          const V upim = V::load(g.ui + p);
          for (int d = 0; d < 3; ++d) {
            const V dre = V::load(g.du_re[d] + p);
            const V dim = V::load(g.du_im[d] + p);
            const V tre = V::fmsub(dcdr[d], upre, dcdi[d] * upim) +
                          V::fmsub(cdr, dre, cdi * dim);
            const V tim = V::fma(dcdr[d], upim, dcdi[d] * upre) +
                          V::fma(cdr, dim, cdi * dre);
            dvre[d] = V::fma(r, tre, dvre[d]);
            dvim[d] = V::fma(r, tim, dvim[d]);
          }
        }
        const int e = (blk + ma * hs + mb) * kW;
        for (int d = 0; d < 3; ++d) {
          dvre[d].store_to(g.du_re[d] + e);
          dvim[d].store_to(g.du_im[d] + e);
        }
      }
    }
  }

  // Fused product rule + contraction. With the product rule
  //   d(w fc u) = w (dfc u + fc du)
  // distributed over the Y dot product,
  //   dE_d = sum_e y[e] . (w (dfc_d u[e] + fc du_d[e]))
  //        = w * (dfc_d * S0 + fc * Sd),
  // S0 = sum_e y[e] . u[e],  Sd = sum_e y[e] . du_d[e]; the four running
  // sums share one sweep over the planes, per lane, no horizontal ops.
  V s0 = V::zero();
  V s[3] = {V::zero(), V::zero(), V::zero()};
  for (int e = 0; e < g.nh; ++e) {
    const V yr = V::broadcast(g.y_re[e * kW]);
    const V yi = V::broadcast(g.y_im[e * kW]);
    const int o = e * kW;
    s0 = V::fma(yr, V::load(g.ur + o), s0);
    s0 = V::fma(yi, V::load(g.ui + o), s0);
    for (int d = 0; d < 3; ++d) {
      s[d] = V::fma(yr, V::load(g.du_re[d] + o), s[d]);
      s[d] = V::fma(yi, V::load(g.du_im[d] + o), s[d]);
    }
  }
  const V w = V::load(ck + kCkW * kW);
  const V fc = V::load(ck + kCkFc * kW);
  for (int d = 0; d < 3; ++d) {
    const V dfc = V::load(ck + (kCkDfc0 + d) * kW);
    (w * V::fma(dfc, s0, fc * s[d])).store_to(g.out + d * kW);
  }
}

template <class V>
void yi_block_impl(const YiBlockArgs& g) {
  const SnapIndex& idx = *g.index;
  const int st = g.stride;

  // Work-list sweep, one Y element at a time. Bounds and zero-CG rows
  // were resolved when the list was built, so the loops carry no
  // branches; every load is one aligned vector of `width` atoms and
  // every CG factor a broadcast.
  const std::vector<YOutput>& outs = idx.y_outputs();
  const YRow* rows = idx.y_rows().data();
  for (std::size_t o = 0; o < outs.size();) {
    const int e = outs[o].e;
    V yr = V::zero();
    V yi = V::zero();
    for (; o < outs.size() && outs[o].e == e; ++o) {
      const YOutput& out = outs[o];
      V zr = V::zero();
      V zi = V::zero();
      for (int r = out.row_begin; r < out.row_end; ++r) {
        const YRow& row = rows[r];
        const double* c = idx.aligned_cg().data() + row.cg_col;
        V sr = V::zero();
        V si = V::zero();
        for (int k = 0; k < row.n; ++k) {
          // s += c[k] * (U[u1 + k] * U[u2 - k])
          const V ck = V::broadcast(c[k]);
          const V a_re = V::load(g.uf_re + (row.u1 + k) * st);
          const V a_im = V::load(g.uf_im + (row.u1 + k) * st);
          const V b_re = V::load(g.uf_re + (row.u2 - k) * st);
          const V b_im = V::load(g.uf_im + (row.u2 - k) * st);
          sr = V::fma(ck, V::fmsub(a_re, b_re, a_im * b_im), sr);
          si = V::fma(ck, V::fma(a_re, b_im, a_im * b_re), si);
        }
        const V cr = V::broadcast(row.cg_row);
        zr = V::fma(cr, sr, zr);
        zi = V::fma(cr, si, zi);
      }
      const V coeff = V::broadcast(g.coeff[out.triple]);
      yr = V::fma(coeff, zr, yr);
      yi = V::fma(coeff, zi, yi);
    }
    // Fold the contraction weight in, so the energy and force
    // contractions are plain dot products over the half range.
    const V hw = V::broadcast(idx.half_weights()[e]);
    (hw * yr).store_to(g.y_re + e * st);
    (hw * yi).store_to(g.y_im + e * st);
  }
}

}  // namespace ember::snap::simd
