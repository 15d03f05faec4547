#include "bispectrum.hpp"

#include <algorithm>
#include <cmath>

#include "check/invariants.hpp"
#include "common/error.hpp"
#include "snap/simd/kernels.hpp"

namespace ember::snap {

// ---- analytic FLOP estimates -------------------------------------------
//
// A complex multiply counts 6 flops, complex add 2, real*complex 2.
// Constants below were chosen by counting the operations in the loops; the
// paper's own numbers come from measured FLOP counters, so these serve the
// same role (converting measured time into a FLOP rate). The adjoint
// counts cover the half column range the lane kernel executes: the Y
// work-list terms, and the dE pass (replayed U recursion, reverse sweep,
// chain rule). The atom-independent counts are taken once, at
// construction.

namespace {
double z_sweep_flops(const SnapIndex& idx) {
  double total = 0.0;
  for (const auto& t : idx.z_triples()) {
    const int s = (t.j1 + t.j2 - t.j) / 2;
    const int n = t.j + 1;
    for (int ma = 0; ma < n; ++ma) {
      const double rows =
          std::min(t.j1, ma + s) - std::max(0, ma + s - t.j2) + 1;
      for (int mb = 0; mb < n; ++mb) {
        const double cols =
            std::min(t.j1, mb + s) - std::max(0, mb + s - t.j2) + 1;
        // inner: cplx mul + scale + add = 10 flops, row finish = 4
        total += rows * (cols * 10.0 + 4.0);
      }
    }
  }
  return total;
}

double y_work_list_flops(const SnapIndex& idx) {
  // term: cplx mul + scale + add = 10; output accumulation 4; half-weight
  // fold 2 per half element.
  return 10.0 * static_cast<double>(idx.y_term_c().size()) +
         4.0 * static_cast<double>(idx.y_outputs().size()) +
         2.0 * static_cast<double>(idx.u_half_total());
}
}  // namespace

Bispectrum::Bispectrum(const SnapParams& params)
    : params_(params),
      idx_(SnapIndex::shared(params.twojmax)),
      simd_isa_(simd::choose_isa()),
      ops_(simd::ops_for(simd_isa_)) {
  const int tj = params_.twojmax;
  EMBER_REQUIRE(params_.rcut > params_.rmin0, "rcut must exceed rmin0");

  rootpq_.resize(static_cast<std::size_t>(tj + 1) * (tj + 1), 0.0);
  for (int p = 1; p <= tj; ++p) {
    for (int q = 1; q <= tj; ++q) {
      rootpq_[static_cast<std::size_t>(p) * (tj + 1) + q] =
          std::sqrt(static_cast<double>(p) / q);
    }
  }

  utot_.resize(idx_.u_total());
  blist_.resize(idx_.num_b());
  dblist_.resize(idx_.num_b());

  const int nh = idx_.u_half_total();
  const std::size_t w = static_cast<std::size_t>(ops_.width);
  atom_ck_.resize(w);
  atom_nnbor_.assign(w, 0);
  ucache_re_.resize(static_cast<std::size_t>(nh) * w);
  ucache_im_.resize(static_cast<std::size_t>(nh) * w);
  ublk_re_.resize(static_cast<std::size_t>(nh) * w);
  ublk_im_.resize(static_cast<std::size_t>(nh) * w);
  ufull_re_.resize(static_cast<std::size_t>(idx_.u_total()) * w);
  ufull_im_.resize(static_cast<std::size_t>(idx_.u_total()) * w);
  y_re_.resize(static_cast<std::size_t>(nh) * w);
  y_im_.resize(static_cast<std::size_t>(nh) * w);
  lane_acc_re_.resize(static_cast<std::size_t>(nh) * w);
  lane_acc_im_.resize(static_cast<std::size_t>(nh) * w);
  lane_lam_re_.resize(static_cast<std::size_t>(nh) * w);
  lane_lam_im_.resize(static_cast<std::size_t>(nh) * w);
  lane_out_.resize(3 * w);

  flops_.zi = z_sweep_flops(idx_);
  flops_.yi = y_work_list_flops(idx_);
  for (const auto& bt : idx_.b_triples()) {
    const double nj = (bt.j + 1) * (bt.j + 1);
    const double nj1 = (bt.j1 + 1) * (bt.j1 + 1);
    const double nj2 = (bt.j2 + 1) * (bt.j2 + 1);
    flops_.bi += 4.0 * nj;
    flops_.dbidrj += 12.0 * (nj + nj1 + nj2);
  }

  // bzero: bispectrum of an isolated atom (self term only), obtained by
  // running the kernel itself on an empty neighbor set. compute_bi_impl
  // takes the subtraction choice explicitly, so the raw values are
  // measured without mutating params_.
  bzero_.assign(idx_.num_b(), 0.0);
  if (params_.bzero_flag) {
    compute_ui({}, {});
    compute_zi();
    compute_bi_impl(/*subtract_bzero=*/false);
    bzero_.assign(blist_.begin(), blist_.end());
  }
}

void Bispectrum::u_recursion(const CayleyKlein& ck) {
  const int tj = params_.twojmax;
  const Cplx a = ck.a;
  const Cplx b = ck.b;
  const Cplx ac = conj(a);
  const Cplx mbc = -conj(b);

  ulist_[0] = {1.0, 0.0};
  dulist_raw_[0] = DU{};

  // Two-term recursion over j (doubled): with row k' = ma, column k = mb,
  //   mb >= 1:  U^j[ma,mb] = sqrt(ma/mb)      a  U^{j-1}[ma-1,mb-1]
  //                        + sqrt((j-ma)/mb)  b  U^{j-1}[ma,  mb-1]
  //   mb == 0:  U^j[ma,0]  = sqrt(ma/j)    (-b*) U^{j-1}[ma-1,0]
  //                        + sqrt((j-ma)/j)  a*  U^{j-1}[ma,  0]
  // (derived from the SU(2) monomial generating function; pinned against
  // the closed form in tests/snap/test_wigner.cpp).
  for (int j = 1; j <= tj; ++j) {
    const int blk = idx_.u_block(j);
    const int pblk = idx_.u_block(j - 1);
    const int cs = j + 1;  // current row stride
    const int ps = j;      // previous row stride
    for (int mb = 0; mb <= j; ++mb) {
      const bool zero_col = (mb == 0);
      const Cplx cu = zero_col ? mbc : a;
      const Cplx cd = zero_col ? ac : b;
      const int pcol = zero_col ? 0 : mb - 1;
      const int denom = zero_col ? j : mb;
      for (int ma = 0; ma <= j; ++ma) {
        Cplx u{};
        DU du{};
        if (ma > 0) {
          const double r =
              rootpq_[static_cast<std::size_t>(ma) * (tj + 1) + denom];
          const Cplx up = ulist_[pblk + (ma - 1) * ps + pcol];
          u += r * (cu * up);
          const DU& dup = dulist_raw_[pblk + (ma - 1) * ps + pcol];
          for (int d = 0; d < 3; ++d) {
            const Cplx dcu = zero_col ? -conj(ck.db[d]) : ck.da[d];
            du.d[d] += r * (dcu * up + cu * dup.d[d]);
          }
        }
        if (ma < j) {
          const double r =
              rootpq_[static_cast<std::size_t>(j - ma) * (tj + 1) + denom];
          const Cplx up = ulist_[pblk + ma * ps + pcol];
          u += r * (cd * up);
          const DU& dup = dulist_raw_[pblk + ma * ps + pcol];
          for (int d = 0; d < 3; ++d) {
            const Cplx dcd = zero_col ? conj(ck.da[d]) : ck.db[d];
            du.d[d] += r * (dcd * up + cd * dup.d[d]);
          }
        }
        ulist_[blk + ma * cs + mb] = u;
        dulist_raw_[blk + ma * cs + mb] = du;
      }
    }
  }
}

simd::UiBlockArgs Bispectrum::ui_args(const double* ck, double* acc_re,
                                      double* acc_im) {
  return {params_.twojmax, idx_.u_half_block_data(), idx_.u_half_total(),
          rootpq_.data(),  ck, ucache_re_.data(), ucache_im_.data(),
          acc_re,          acc_im};
}

void Bispectrum::compute_ui(std::span<const Vec3> rij,
                            std::span<const double> wj) {
  compute_ui(rij, wj, 0);
  const std::size_t w = static_cast<std::size_t>(ops_.width);
  for (std::size_t f = 0; f < utot_.size(); ++f) {
    utot_[f] = {ufull_re_[f * w], ufull_im_[f * w]};
  }
}

void Bispectrum::compute_ui(std::span<const Vec3> rij,
                            std::span<const double> wj, int lane) {
  EMBER_REQUIRE(wj.empty() || wj.size() == rij.size(),
                "weight array size mismatch");
  EMBER_REQUIRE(lane >= 0 && lane < ops_.width, "atom lane out of range");
  have_z_ = false;
  const int nn = static_cast<int>(rij.size());
  const int w = ops_.width;
  const std::size_t ck_block = static_cast<std::size_t>(simd::kCkSlots) * w;
  const int nblk = (nn + w - 1) / w;
  aligned_vector<double>& ck = atom_ck_[lane];
  ck.resize(static_cast<std::size_t>(nblk) * ck_block);
  atom_nnbor_[lane] = nn;
  std::fill(lane_acc_re_.begin(), lane_acc_re_.end(), 0.0);
  std::fill(lane_acc_im_.begin(), lane_acc_im_.end(), 0.0);
  EMBER_CHECK(EMBER_REQUIRE(
      is_aligned(ucache_re_.data()) && is_aligned(ucache_im_.data()) &&
          is_aligned(lane_acc_re_.data()) && is_aligned(lane_acc_im_.data()),
      "SNAP lane-kernel planes must be 64-byte aligned"));

  simd::MapBlockArgs map{.rcut = params_.rcut,
                         .rfac0 = params_.rfac0,
                         .rmin0 = params_.rmin0,
                         .switch_flag = params_.switch_flag};
  for (int b = 0; b < nblk; ++b) {
    double* slots = ck.data() + static_cast<std::size_t>(b) * ck_block;
    map.rij = rij.data() + static_cast<std::size_t>(b) * w;
    map.n = std::min(w, nn - b * w);
    map.ck = slots;
    EMBER_REQUIRE(ops_.map_block(map), "neighbor distance outside (0, rcut)");
    // Padded lanes repeat the last neighbor's mapping with weight 0: the
    // recursion stays finite and their contributions vanish.
    for (int l = 0; l < w; ++l) {
      slots[simd::kCkW * w + l] =
          l < map.n ? (wj.empty() ? 1.0 : wj[b * w + l]) : 0.0;
    }
    ops_.ui_block(ui_args(slots, lane_acc_re_.data(), lane_acc_im_.data()));
  }

  // Reduce the neighbor-lane accumulator into the atom's lane of the
  // block Utot, add the self term on the diagonal, and expand the lane to
  // the full range the Y sweep reads: beyond the half range
  // U[j,ma,mb] = (-1)^(ma+mb) conj(U[j,j-ma,j-mb]).
  const std::size_t uw = static_cast<std::size_t>(w);
  std::size_t e = 0;
  for (int j = 0; j <= params_.twojmax; ++j) {
    for (int ma = 0; ma <= j; ++ma) {
      for (int mb = 0; 2 * mb <= j; ++mb, ++e) {
        double sr = 0.0;
        double si = 0.0;
        for (std::size_t l = 0; l < uw; ++l) {
          sr += lane_acc_re_[e * uw + l];
          si += lane_acc_im_[e * uw + l];
        }
        if (ma == mb) sr += params_.wself;
        ublk_re_[e * uw + lane] = sr;
        ublk_im_[e * uw + lane] = si;
        const auto f =
            static_cast<std::size_t>(idx_.u_index(j, ma, mb)) * uw + lane;
        ufull_re_[f] = sr;
        ufull_im_[f] = si;
        if (2 * mb < j) {
          const double sg = (ma + mb) % 2 == 0 ? 1.0 : -1.0;
          const auto g =
              static_cast<std::size_t>(idx_.u_index(j, j - ma, j - mb)) * uw +
              lane;
          ufull_re_[g] = sg * sr;
          ufull_im_[g] = -sg * si;
        }
      }
    }
  }
}

Cplx Bispectrum::z_element(const ZTriple& t, int ma, int mb) const {
  const int j1 = t.j1;
  const int j2 = t.j2;
  const int s = (t.j1 + t.j2 - t.j) / 2;
  const Cplx* u1 = utot_.data() + idx_.u_block(j1);
  const Cplx* u2 = utot_.data() + idx_.u_block(j2);
  const int s1 = j1 + 1;
  const int s2 = j2 + 1;

  Cplx z{};
  const int ra_lo = std::max(0, ma + s - j2);
  const int ra_hi = std::min(j1, ma + s);
  const int cb_lo = std::max(0, mb + s - j2);
  const int cb_hi = std::min(j1, mb + s);
  for (int ma1 = ra_lo; ma1 <= ra_hi; ++ma1) {
    const int ma2 = ma + s - ma1;
    const double cg_row = idx_.cg(t, ma1, ma2);
    if (cg_row == 0.0) continue;
    Cplx rowsum{};
    for (int mb1 = cb_lo; mb1 <= cb_hi; ++mb1) {
      const int mb2 = mb + s - mb1;
      const double cg_col = idx_.cg(t, mb1, mb2);
      if (cg_col == 0.0) continue;
      rowsum += cg_col * (u1[ma1 * s1 + mb1] * u2[ma2 * s2 + mb2]);
    }
    z += cg_row * rowsum;
  }
  return z;
}

void Bispectrum::compute_zi() {
  // Sized on first use: the linear adjoint path never stores Z.
  zlist_.resize(idx_.z_total());
  for (const auto& t : idx_.z_triples()) {
    Cplx* z = zlist_.data() + t.idxz_u;
    const int n = t.j + 1;
    for (int ma = 0; ma < n; ++ma) {
      for (int mb = 0; mb < n; ++mb) {
        z[ma * n + mb] = z_element(t, ma, mb);
      }
    }
  }
  have_z_ = true;
}

void Bispectrum::compute_bi() { compute_bi_impl(params_.bzero_flag); }

void Bispectrum::compute_bi_impl(bool subtract_bzero) {
  EMBER_REQUIRE(have_z_, "compute_bi requires compute_zi");
  int l = 0;
  for (const auto& bt : idx_.b_triples()) {
    const int zi = idx_.z_index(bt.j1, bt.j2, bt.j);
    const ZTriple& t = idx_.z_triples()[zi];
    const Cplx* z = zlist_.data() + t.idxz_u;
    const Cplx* uj = utot_.data() + idx_.u_block(bt.j);
    const int n = bt.j + 1;
    double sum = 0.0;
    for (int e = 0; e < n * n; ++e) sum += re_mul_conj(z[e], uj[e]);
    blist_[l] = sum - (subtract_bzero ? bzero_[l] : 0.0);
    ++l;
  }
}

void Bispectrum::compute_yi(std::span<const double> beta) {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == idx_.num_b(),
                "beta size must equal the number of bispectrum components");
  const auto& triples = idx_.z_triples();
  yi_coeff_scratch_.resize(triples.size());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    yi_coeff_scratch_[i] = beta[triples[i].idxb] * triples[i].beta_scale;
  }
  compute_yi_coeffs(yi_coeff_scratch_);
}

void Bispectrum::compute_yi_coeffs(std::span<const double> coeffs) {
  EMBER_REQUIRE(coeffs.size() == idx_.z_triples().size(),
                "coefficient array must have one entry per coupling triple");
  simd::scalar_ops().yi_block({&idx_, ops_.width, ufull_re_.data(),
                               ufull_im_.data(), coeffs.data(), y_re_.data(),
                               y_im_.data()});
}

void Bispectrum::compute_yi_block(std::span<const double> coeffs) {
  EMBER_REQUIRE(coeffs.size() == idx_.z_triples().size(),
                "coefficient array must have one entry per coupling triple");
  ops_.yi_block({&idx_, ops_.width, ufull_re_.data(), ufull_im_.data(),
                 coeffs.data(), y_re_.data(), y_im_.data()});
}

void Bispectrum::compute_duidrj(const Vec3& rij, double wj) {
  const CayleyKlein ck = map_to_sphere(rij, params_.rcut, params_.rfac0,
                                       params_.rmin0, params_.switch_flag);
  // Sized on first use: only the Baseline path runs the full recursion.
  ulist_.resize(idx_.u_total());
  dulist_raw_.resize(idx_.u_total());
  dulist_.resize(idx_.u_total());
  u_recursion(ck);
  for (int i = 0; i < idx_.u_total(); ++i) {
    for (int d = 0; d < 3; ++d) {
      dulist_[i].d[d] =
          wj * (ck.dfc[d] * ulist_[i] + ck.fc * dulist_raw_[i].d[d]);
    }
  }
}

void Bispectrum::compute_deidrj_all(std::span<Vec3> de, int lane) {
  EMBER_REQUIRE(lane >= 0 && lane < ops_.width, "atom lane out of range");
  const int nn = atom_nnbor_[lane];
  EMBER_REQUIRE(static_cast<int>(de.size()) >= nn,
                "force span smaller than the atom's neighbor set");
  const int nh = idx_.u_half_total();
  const int w = ops_.width;
  const int nblk = (nn + w - 1) / w;
  EMBER_CHECK(EMBER_REQUIRE(
      is_aligned(ucache_re_.data()) && is_aligned(ucache_im_.data()) &&
          is_aligned(lane_lam_re_.data()) && is_aligned(lane_lam_im_.data()),
      "SNAP lane-kernel planes must be 64-byte aligned"));

  simd::DeiBlockArgs args;
  args.twojmax = params_.twojmax;
  args.half_block = idx_.u_half_block_data();
  args.nh = nh;
  args.rootpq = rootpq_.data();
  args.ur = ucache_re_.data();
  args.ui = ucache_im_.data();
  args.lam_re = lane_lam_re_.data();
  args.lam_im = lane_lam_im_.data();
  args.y_re = y_re_.data() + lane;
  args.y_im = y_im_.data() + lane;
  args.out = lane_out_.data();
  for (int b = 0; b < nblk; ++b) {
    args.ck = atom_ck_[lane].data() +
              static_cast<std::size_t>(b) * simd::kCkSlots * w;
    // Replay the block's bare U recursion (no accumulation) rather than
    // keep every block's U from compute_ui.
    ops_.ui_block(ui_args(args.ck, nullptr, nullptr));
    ops_.dei_block(args);
    // The Y planes carry the half-range weights (factor 2 for mirrored
    // columns), so each lane's sum is the complete chain rule.
    const int active = std::min(w, nn - b * w);
    for (int l = 0; l < active; ++l) {
      de[b * w + l] = Vec3{lane_out_[0 * w + l], lane_out_[1 * w + l],
                           lane_out_[2 * w + l]};
    }
  }
}

void Bispectrum::compute_dbidrj() {
  EMBER_REQUIRE(have_z_, "compute_dbidrj requires compute_zi");
  int l = 0;
  for (const auto& bt : idx_.b_triples()) {
    const int j1 = bt.j1;
    const int j2 = bt.j2;
    const int j = bt.j;
    Vec3 db;
    // Direct term  Z^{j}_{j1 j2} : dU*_j  and the two permuted terms of
    // paper eq. (6); permuted Z's carry the dimension ratio
    // (2j+1)/(2j_target+1) — see indexing.cpp for the derivation note.
    struct Term {
      int za, zb, ztarget;
      double scale;
    };
    const Term terms[3] = {
        {j1, j2, j, 1.0},
        {j, j2, j1, static_cast<double>(j + 1) / (j1 + 1)},
        {j, j1, j2, static_cast<double>(j + 1) / (j2 + 1)},
    };
    for (const auto& term : terms) {
      const ZTriple& t =
          idx_.z_triples()[idx_.z_index(term.za, term.zb, term.ztarget)];
      const Cplx* z = zlist_.data() + t.idxz_u;
      const DU* du = dulist_.data() + idx_.u_block(term.ztarget);
      const int n = term.ztarget + 1;
      Vec3 part;
      for (int e = 0; e < n * n; ++e) {
        part.x += re_mul_conj(z[e], du[e].d[0]);
        part.y += re_mul_conj(z[e], du[e].d[1]);
        part.z += re_mul_conj(z[e], du[e].d[2]);
      }
      db += term.scale * part;
    }
    // Full-matrix contraction of all three chain-rule terms: no factor 2.
    // The Y/Z accumulation already contains all three U-slot dependency
    // paths of every B component (direct + two permuted), so the
    // full-matrix contraction IS the complete chain rule.
    dblist_[l] = db;
    ++l;
  }
}

void Bispectrum::compute_deidrj_baseline(std::span<const Vec3> rij,
                                         std::span<const double> beta,
                                         std::span<Vec3> de) {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == num_b(),
                "beta must have one entry per bispectrum component");
  EMBER_REQUIRE(de.size() >= rij.size(),
                "force span smaller than the atom's neighbor set");
  for (std::size_t m = 0; m < rij.size(); ++m) {
    compute_duidrj(rij[m], 1.0);
    compute_dbidrj();
    Vec3 sum;
    for (int l = 0; l < num_b(); ++l) sum += beta[l] * dblist_[l];
    de[m] = sum;
  }
}

double Bispectrum::energy_from_yi(double beta0, std::span<const double> beta,
                                  int lane) const {
  EMBER_REQUIRE(lane >= 0 && lane < ops_.width, "atom lane out of range");
  // The Y planes carry the half-range weights, so the half-plane dot
  // product equals the full-range sum Y : conj(Utot).
  const std::size_t w = static_cast<std::size_t>(ops_.width);
  double sum = 0.0;
  for (int i = 0; i < idx_.u_half_total(); ++i) {
    const std::size_t k = static_cast<std::size_t>(i) * w + lane;
    sum += y_re_[k] * ublk_re_[k] + y_im_[k] * ublk_im_[k];
  }
  double e = beta0 + sum / 3.0;
  if (params_.bzero_flag) {
    for (int l = 0; l < idx_.num_b(); ++l) e -= beta[l] * bzero_[l];
  }
  return e;
}

double Bispectrum::energy(double beta0, std::span<const double> beta) const {
  EMBER_REQUIRE(static_cast<int>(beta.size()) == idx_.num_b(),
                "beta size must equal the number of bispectrum components");
  double e = beta0;
  for (int l = 0; l < idx_.num_b(); ++l) e += beta[l] * blist_[l];
  return e;
}

// ---- analytic FLOP estimates (see the counting helpers at the top) -----

double Bispectrum::flops_ui(int nnbor) const {
  // Per neighbor: the lane-wide mapping ~60 (libm tan/cos/sin not
  // counted), and per half element the recursion ~22 plus the w fc U
  // accumulation 4 fused into it.
  return static_cast<double>(nnbor) *
         (60.0 + 26.0 * static_cast<double>(idx_.u_half_total()));
}

double Bispectrum::flops_duidrj_full() const {
  // recursion with derivatives: ~22 base + 3 dims * 16, plus product rule
  return 60.0 + (22.0 + 48.0 + 12.0) * static_cast<double>(idx_.u_total());
}

double Bispectrum::flops_duidrj() const {
  // Per half element: the replayed bare U recursion (~22) and the reverse
  // sweep, 2 parents x (scale 2 + scatter 8 + constant gradient 8) = 36.
  return (22.0 + 36.0) * static_cast<double>(idx_.u_half_total());
}

double Bispectrum::flops_deidrj() const {
  // Seed: S0 = Y . U (4) per half element; chain rule per neighbor:
  // 3 dims x (G . (da, db) 7 + product rule 4).
  return 4.0 * static_cast<double>(idx_.u_half_total()) + 33.0;
}

double Bispectrum::flops_adjoint_atom(int nnbor) const {
  return flops_ui(nnbor) + flops_.yi +
         nnbor * (flops_duidrj() + flops_deidrj());
}

}  // namespace ember::snap
